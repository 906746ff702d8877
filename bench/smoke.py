"""Smoke test of the benchmark at tiny size: it runs, passes its checks,
and emits exactly the metrics BENCHMARK.json declares, with their units.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Each run uses the `tiny` scale (grids of 12 to 20 points, 24 or 60 steps,
one training epoch), so all six runs take well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("solver-sweep", "pipeline-default", "infer-long-horizon")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["per_layer" if trace else "end_to_end"]
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        check(workload, 0)


def test_per_layer_metrics():
    for workload in WORKLOADS:
        check(workload, 1)


if __name__ == "__main__":
    for trace in (0, 1):
        for workload in WORKLOADS:
            check(workload, trace)
            print(f"ok  {workload} trace {trace}")
