"""The benchmark's own smoke check, run as part of the test suite.

bench/run.py imports qwave's functions by name; a change that renames or
drops one would otherwise pass every other test and break only the
benchmark.  Each case runs one workload at the `tiny` scale.
"""

import importlib.util
from pathlib import Path

import pytest

_SMOKE = Path(__file__).resolve().parent.parent / "bench" / "smoke.py"


def _load_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", _SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke = _load_smoke()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", smoke.WORKLOADS)
def test_bench_workload_at_tiny_scale(workload, trace):
    smoke.check(workload, trace)
