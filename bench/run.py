#!/usr/bin/env python3
"""Benchmark of the qwave pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout under test is the parent of this file's directory.  Every
CLI stage runs as its own subprocess, the way a user runs `qwave`, with
the checkout's `src` first on PYTHONPATH.  Outputs go to a temporary
directory under `.bench_work/` in the checkout, removed at exit.  The
last line of stdout is the JSON result; the lines before it are the
per-stage (or per-layer) table and the recorded environment.  See
bench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
# what the `qwave` console script runs (pyproject: qwave = "qwave.cli:main")
CLI = "import sys; from qwave.cli import main; sys.exit(main())"

WORKLOADS = ("solver-sweep", "pipeline-default", "infer-long-horizon")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "discretize.assemble_s": "s",
    "discretize.h_bytes": "bytes",
    "spectral.eigendecompose_s": "s",
    "spectral.build_propagator_s": "s",
    "spectral.eig_residual": "abs",
    "spectral.orthogonality_err": "abs",
    "spectral.oracle_eig_err": "abs",
    "spectral.unitarity_err": "abs",
    "evolve.step_loop_s": "s",
    "evolve.max_norm_drift": "abs",
    "evolve.write_frames_s": "s",
    "evolve.read_frames_s": "s",
    "evolve.frames_bytes": "bytes",
    "dataset.prepare_split_s": "s",
    "dataset.train_pairs": "count",
    "dataset.test_pairs": "count",
    "surrogate.forward_ms": "ms",
    "surrogate.backward_ms": "ms",
    "surrogate.adam_ms": "ms",
    "surrogate.epoch_s": "s",
    "surrogate.final_train_mse": "scaled2",
    "surrogate.predict_onestep_s": "s",
    "surrogate.rollout_step_ms": "ms",
    "surrogate.save_checkpoint_s": "s",
    "surrogate.load_checkpoint_s": "s",
    "surrogate.checkpoint_bytes": "bytes",
    "compare.build_report_s": "s",
    "compare.test_mse": "density2",
    "compare.crit9_share": "ratio",
    "compare.clamped_values": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# shipped tolerances (tests/test_acceptance.py criteria 3, 4, 5a)
DRIFT_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # times max|H|
UNITARITY_TOL = 1e-10
ORACLE_TOL = 1e-9

FRAMES = "frames.csv"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Scale:
    """Problem sizes: `full` is the benchmark, `tiny` only exercises it (bench/smoke.py)."""

    sweep: tuple[int, ...]  # grid.n_points of solver-sweep
    config: dict  # config keys set on every stage; empty keeps the shipped defaults
    long_steps: int  # evolution.n_steps of infer-long-horizon
    setup_repeats: int

    def flags(self, extra: dict | None = None) -> list[str]:
        merged = {**self.config, **(extra or {})}
        return [a for key, value in merged.items() for a in (f"--{key}", str(value))]


SCALES = {
    "full": Scale((200, 400, 800), {}, 2000, 7),
    "tiny": Scale(
        (12, 16, 20),
        {
            "grid.n_points": 16,
            "evolution.n_steps": 24,
            "training.epochs": 1,
            "training.hidden_dim": 4,
        },
        60,
        2,
    ),
}


def run_config(scale: Scale, extra: dict | None = None):
    """The RunConfig the CLI resolves from scale.flags(extra)."""
    from qwave.config import RunConfig, apply_overrides, key_type, validate_config

    merged = {**scale.config, **(extra or {})}
    return validate_config(
        apply_overrides(RunConfig(), {k: key_type(k)(v) for k, v in merged.items()})
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): sha256(p)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Bench:
    """Work directory, child environment, stage timings and the check tally."""

    def __init__(self, work: Path, scale: Scale):
        self.work = work
        self.scale = scale
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), inherited])))
        self.attempted = 0
        self.failures: list[str] = []
        self.stage_s: dict[str, list[float]] = {}
        self.stage_cpu_s: dict[str, list[float]] = {}  # above wall time when BLAS uses a second core
        self.stage_rss_mb: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def child(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run one child to completion: wall seconds, CPU seconds, its own peak RSS in MB, exit code.

        os.wait4 returns the rusage of that child alone; RUSAGE_CHILDREN would
        report the maximum over every child reaped so far.
        """
        with open(log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, cwd=self.work, stdout=out, stderr=out
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def stage(self, name: str, out: Path, *args: str) -> float:
        """One CLI stage as a subprocess writing into out; returns its wall time."""
        out.mkdir(parents=True, exist_ok=True)
        wall, cpu, rss, code = self.child(["-c", CLI, *args, "--io.output_dir", str(out)], out / "log.txt")
        if self.check(code == 0, f"`qwave {' '.join(args)}` exited {code}"):
            self.stage_s.setdefault(name, []).append(wall)
            self.stage_cpu_s.setdefault(name, []).append(cpu)
            self.stage_rss_mb[name] = max(self.stage_rss_mb.get(name, 0.0), rss)
        return wall

    def peak_rss_mb(self) -> float:
        return max(self.stage_rss_mb.values())

    def pass_s(self, plan) -> float:
        """One pass: the sum over its stages of each stage's median time."""
        return sum(statistics.median(self.stage_s[name]) for name, _ in plan.stages)


def time_left(seconds: float, start: float) -> float:
    return seconds - (time.perf_counter() - start)


# ---------------------------------------------------------------- set-up


def measure_setup(b: Bench) -> tuple[float, str]:
    """Median wall time of a fresh interpreter through `import qwave.cli`.

    One untimed import first fills __pycache__, and proves that children
    import the checkout's qwave.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "import qwave.cli, qwave; print(qwave.__file__)"],
        env=b.env, cwd=b.work, capture_output=True, text=True,
    )
    qwave_file = probe.stdout.strip()
    b.check(
        probe.returncode == 0 and Path(qwave_file).resolve().is_relative_to(SRC.resolve()),
        f"children import qwave from {qwave_file or probe.stderr.strip()!r}, not {SRC}",
    )
    walls = []
    for _ in range(b.scale.setup_repeats):
        wall, _, _, code = b.child(["-c", "import qwave.cli"], b.work / "setup_log.txt")
        if b.check(code == 0, f"`import qwave.cli` exited {code}"):
            walls.append(wall)
    return statistics.median(walls), qwave_file


# ---------------------------------------------------------------- checks


def solver_records(h, decomp, propagator, record, frames_path: Path) -> dict[str, float]:
    """Roundoff records of one solve, and whether frames.csv rereads bitwise."""
    hm, q, lam = h.matrix, decomp.eigenvectors, decomp.eigenvalues
    u = propagator.matrix
    times, frames = _read_frames(frames_path)
    return {
        "eig_residual": float(np.max(np.abs(hm @ q - q * lam[None, :]))),
        "residual_tol": RESIDUAL_TOL * float(np.max(np.abs(hm))),
        "orthogonality_err": float(np.max(np.abs(q.T @ q - np.eye(q.shape[0])))),
        "oracle_eig_err": float(np.max(np.abs(lam - np.linalg.eigh(hm)[0]))),
        "unitarity_err": float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))),
        "max_norm_drift": float(np.max(record.conservation_log)),
        "reread_equal": bool(
            np.array_equal(times, record.times) and np.array_equal(frames, record.density_matrix())
        ),
    }


def gate_solver(b: Bench, n: int, rec: dict) -> None:
    b.check(rec["max_norm_drift"] <= DRIFT_TOL, f"n{n}: norm drift {rec['max_norm_drift']:.3e}")
    b.check(
        rec["eig_residual"] <= rec["residual_tol"],
        f"n{n}: |HQ-QL| {rec['eig_residual']:.3e} > {rec['residual_tol']:.3e}",
    )
    b.check(rec["unitarity_err"] <= UNITARITY_TOL, f"n{n}: |U^H U - I| {rec['unitarity_err']:.3e}")
    b.check(rec["oracle_eig_err"] <= ORACLE_TOL, f"n{n}: eigenvalues off eigh by {rec['oracle_eig_err']:.3e}")
    b.check(rec["reread_equal"], f"n{n}: frames.csv does not reread to the in-memory frames")


def _read_frames(path: Path):
    from qwave import evolve as ev

    return ev.read_frames_csv(path)


def check_report(b: Bench, out: Path, cfg) -> float:
    """The CLI's report.csv must equal build_report on the same inputs; returns mean mse."""
    from qwave import compare as cp
    from qwave import dataset as dsm
    from qwave import discretize as dz
    from qwave import evolve as ev

    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, cfg.grid_n_points)
    record = ev.record_from_frames_csv(grid, cfg.evolution_dt, cfg.evolution_normalization_mode, out / FRAMES)
    # compare always scores one-step predictions (cmd_compare is called without --mode)
    pred_times, preds = ev.read_frames_csv(out / "pred_onestep.csv")  # same table layout
    report = cp.build_report(record, preds, pred_times, dsm.load_scaler(out / "scaler.txt"))
    reference = b.work / "reference_report.csv"
    cp.write_report_csv(report, reference)
    b.check(
        reference.read_bytes() == (out / "report.csv").read_bytes(),
        f"{out.name}/report.csv differs from build_report on the same inputs",
    )
    return report.mean_mse


def check_predictions(b: Bench, out: Path, cfg) -> None:
    """Both prediction files must equal the surrogate run in process on the saved checkpoint."""
    from qwave import dataset as dsm
    from qwave import surrogate as sg

    times, frames = _read_frames(out / FRAMES)
    split = dsm.prepare_split(frames, times, cfg.dataset_lookback, cfg.dataset_split_fraction,
                              dsm.load_scaler(out / "scaler.txt"))
    model = sg.load_checkpoint(out / "model.ckpt")
    expected = {
        "pred_onestep.csv": sg.predict_one_step(model, split.test.inputs),
        "pred_rollout.csv": sg.predict_rollout(model, split.test.inputs[0], len(split.test)),
    }
    for name, preds in expected.items():
        pred_times, got = _read_frames(out / name)  # same table layout as frames.csv
        b.check(
            np.array_equal(pred_times, split.test.target_times) and np.array_equal(got, preds),
            f"{out.name}/{name} differs from the surrogate run on model.ckpt",
        )


def crit9_share(out: Path, cfg) -> float:
    """Acceptance criterion 9, as tests/test_acceptance.py computes it."""
    from qwave import dataset as dsm

    times, frames = _read_frames(out / FRAMES)
    scaler = dsm.load_scaler(out / "scaler.txt")
    split = dsm.prepare_split(frames, times, cfg.dataset_lookback, cfg.dataset_split_fraction, scaler)
    _, scaled = _read_frames(out / "pred_onestep.csv")
    preds = dsm.inverse_transform(scaler, scaled)
    truth = dsm.inverse_transform(scaler, split.test.targets)
    passing = 0
    for pred, true in zip(preds, truth):
        pred = np.clip(pred, 0.0, None)
        frac = float(np.max(np.abs(pred - true))) / float(true.max())
        if frac <= 0.05 and abs(int(np.argmax(pred)) - int(np.argmax(true))) <= 2:
            passing += 1
    return passing / len(preds)


# ---------------------------------------------------------------- workloads


@dataclass
class Plan:
    """One workload: the stages of one timed pass, and what prepares it."""

    stages: list[tuple[str, list[str]]]  # (name, CLI args) of one pass
    prepare: list[tuple[str, list[str]]] = field(default_factory=list)
    checkpoint: tuple[int, int, int] | None = None  # (input_dim, hidden_dim, seed) to init_model
    config: dict = field(default_factory=dict)
    sweep: bool = False  # each stage writes its own directory, and its frames are read back

    def stage_dir(self, out: Path, name: str) -> Path:
        return out / name if self.sweep else out


def plan_for(workload: str, scale: Scale, seed: int) -> Plan:
    if workload == "solver-sweep":
        sizes = list(scale.sweep)
        random.Random(seed).shuffle(sizes)  # the seed picks the shot order
        stages = [(f"simulate.n{n}", ["simulate", *scale.flags({"grid.n_points": n})]) for n in sizes]
        return Plan(stages, sweep=True)
    if workload == "pipeline-default":
        flags = scale.flags()
        return Plan([
            ("simulate", ["simulate", *flags]),
            ("export-dataset", ["export-dataset", *flags]),
            ("train", ["train", *flags, "--training.rng_seed", str(seed)]),
            ("predict.one-step", ["predict", "--mode", "one-step", *flags]),
            ("predict.rollout", ["predict", "--mode", "rollout", *flags]),
            ("compare", ["compare", *flags]),
        ])
    extra = {"evolution.n_steps": scale.long_steps}
    flags = scale.flags(extra)
    cfg = run_config(scale, extra)
    snap = snapshot_times(cfg, seed)
    return Plan(
        stages=[
            ("predict.one-step", ["predict", "--mode", "one-step", *flags]),
            ("predict.rollout", ["predict", "--mode", "rollout", *flags]),
            ("compare", ["compare", *flags]),
            ("snapshot", ["snapshot", "--times", snap, *flags]),
            ("table", ["table", *flags]),
        ],
        prepare=[("simulate", ["simulate", *flags]), ("export-dataset", ["export-dataset", *flags])],
        checkpoint=(cfg.grid_n_points, cfg.training_hidden_dim, seed),
        config=extra,
    )


def snapshot_times(cfg, seed: int) -> str:
    """Two recorded times inside the test horizon, picked by the seed."""
    n_frames = cfg.evolution_n_steps + 1
    n_pairs = n_frames - cfg.dataset_lookback
    n_train = int(cfg.dataset_split_fraction * n_pairs)
    steps = random.Random(seed).sample(range(n_train + cfg.dataset_lookback, n_frames), 2)
    return ",".join(f"{k * cfg.evolution_dt:.6g}" for k in sorted(steps))


def write_checkpoint(out: Path, spec: tuple[int, int, int]) -> None:
    """Untrained weights: forward cost does not depend on their values."""
    from qwave import surrogate as sg

    sg.save_checkpoint(sg.init_model(*spec), out / "model.ckpt")


def outputs_digest(out: Path) -> dict[str, str]:
    return {k: v for k, v in tree_digest(out).items() if not k.endswith("log.txt")}


def check_drift(b: Bench, out: Path) -> None:
    drift = np.loadtxt(out / "conservation.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    b.check(float(drift.max()) <= DRIFT_TOL, f"{out.name}: norm drift {drift.max():.3e}")


def run_passes(b: Bench, plan: Plan, seconds: float, out_of) -> None:
    """One timed pass, then more while the last one fits in the time left.

    Every pass must write the same bytes as the first (criterion 10).
    """
    walls: list[float] = []
    first = None
    start = time.perf_counter()
    while not walls or time_left(seconds, start) > walls[-1]:
        out = out_of(len(walls))
        wall = 0.0
        for name, args in plan.stages:
            wall += b.stage(name, plan.stage_dir(out, name), *args)
            if plan.sweep:
                check_drift(b, plan.stage_dir(out, name))
        walls.append(wall)
        digest = outputs_digest(out)
        if first is None:
            first = digest
        else:
            b.check(digest == first, f"pass {len(walls)} outputs differ from pass 1 (criterion 10)")


def run_solver_sweep(b: Bench, plan: Plan, seconds: float) -> dict:
    out = b.work / "sweep"
    run_passes(b, plan, seconds, lambda k: out)

    # full in-process gate at the smallest size, untimed
    from qwave import discretize as dz
    from qwave import evolve as ev
    from qwave import spectral as sp

    n = min(b.scale.sweep)
    cfg = run_config(b.scale, {"grid.n_points": n})
    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, n)
    h = dz.assemble_hamiltonian(dz.laplacian(grid), dz.harmonic_potential(grid))
    decomp = sp.eigendecompose(h)
    run = ev.EvolutionConfig(grid, cfg.evolution_dt, cfg.evolution_n_steps, cfg.evolution_normalization_mode)
    record = ev.run_evolution(run, h)
    propagator = sp.build_propagator(decomp, cfg.evolution_dt)
    gate_solver(b, n, solver_records(h, decomp, propagator, record, out / f"simulate.n{n}" / FRAMES))
    return {"pipeline_s": b.pass_s(plan)}


def run_pipeline(b: Bench, plan: Plan, seconds: float) -> dict:
    run_passes(b, plan, seconds, lambda k: b.work / f"chain{k}")
    cfg = run_config(b.scale)
    check_predictions(b, b.work / "chain0", cfg)
    mse = check_report(b, b.work / "chain0", cfg)
    return {"pipeline_s": b.pass_s(plan), "test_mse": mse}


def run_infer(b: Bench, plan: Plan, seconds: float) -> dict:
    out = b.work / "long"
    for name, args in plan.prepare:  # untimed
        b.stage(name, out, *args)
    check_drift(b, out)
    write_checkpoint(out, plan.checkpoint)
    run_passes(b, plan, seconds, lambda k: out)
    cfg = run_config(b.scale, plan.config)
    check_predictions(b, out, cfg)
    mse = check_report(b, out, cfg)
    return {"pipeline_s": b.pass_s(plan), "test_mse": mse}


RUNNERS = {
    "solver-sweep": run_solver_sweep,
    "pipeline-default": run_pipeline,
    "infer-long-horizon": run_infer,
}


# ---------------------------------------------------------------- traced run

CAPTURE = frozenset({
    "discretize.assemble_hamiltonian",
    "spectral.eigendecompose",
    "spectral.build_propagator",
    "evolve.run_evolution",
    "dataset.prepare_split",
    "surrogate.train",
    "compare.build_report",
})


def replay(plan: Plan, outs: list[tuple[Path, object]], b: Bench) -> list[float]:
    """The workload's stages in-process through cli.main, once per (dir, tracer) in outs.

    The copies run stage by stage in turn, so a drift in machine speed
    lands on both sides of the overhead figure.  Returns each copy's wall
    time; the tracer, when given, is installed around its copy's stages
    only and marks where each stage's spans start.
    """
    from qwave import cli
    from qwave import evolve as ev

    walls = [0.0] * len(outs)
    for name, args in [*plan.prepare, *plan.stages]:
        for k, (out, tracer) in enumerate(outs):
            stage_out = plan.stage_dir(out, name)
            with tracer.installed() if tracer else contextlib.nullcontext():
                if tracer:
                    tracer.mark(name)
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*args, "--io.output_dir", str(stage_out)])
                if plan.sweep:  # read the frames back, as the next stage would
                    ev.read_frames_csv(stage_out / FRAMES)
                if name == "export-dataset" and plan.checkpoint:
                    write_checkpoint(stage_out, plan.checkpoint)
                walls[k] += time.perf_counter() - start
            b.check(code == 0, f"in-process `qwave {' '.join(args)}` exited {code}")
    return walls


def layer_metrics(tracer, plan: Plan, out: Path, cfg) -> tuple[dict, dict]:
    """Per-layer metrics from one traced replay; None where the replay never calls the function."""
    stats = tracer.stats()
    res = tracer.results

    def total(name):
        return stats[name].total_s if name in stats else None

    def per_call(name, scale=1.0):
        return stats[name].total_s / stats[name].calls * scale if name in stats else None

    def layer_self(layer):
        spans = [s.self_s for n, s in stats.items() if n.startswith(layer + ".")]
        return sum(spans) if spans else None

    m: dict[str, float | None] = {k: None for k in PER_LAYER}
    m["cli.self_s"] = layer_self("cli")
    m["discretize.assemble_s"] = layer_self("discretize")
    if res["discretize.assemble_hamiltonian"]:
        m["discretize.h_bytes"] = max(
            sum(getattr(h, f.name).nbytes for f in fields(h) if isinstance(getattr(h, f.name), np.ndarray))
            for h in res["discretize.assemble_hamiltonian"]
        )
    m["spectral.eigendecompose_s"] = total("spectral.eigendecompose")
    m["spectral.build_propagator_s"] = total("spectral.build_propagator")
    records = {}
    if "evolve.run_evolution" in stats:
        inner = sum(tracer.child_total_s("evolve.run_evolution", c)[1]
                    for c in ("spectral.eigendecompose", "spectral.build_propagator"))
        m["evolve.step_loop_s"] = stats["evolve.run_evolution"].total_s - inner
        # one eigendecompose/build_propagator per run_evolution, in call order
        for h, d, u, r in zip(*(res[k] for k in ("discretize.assemble_hamiltonian", "spectral.eigendecompose",
                                                 "spectral.build_propagator", "evolve.run_evolution"))):
            records[h.n] = solver_records(h, d, u, r, plan.stage_dir(out, f"simulate.n{h.n}") / FRAMES)
        for key in ("eig_residual", "orthogonality_err", "oracle_eig_err", "unitarity_err"):
            m[f"spectral.{key}"] = max(r[key] for r in records.values())
        m["evolve.max_norm_drift"] = max(r["max_norm_drift"] for r in records.values())
    m["evolve.write_frames_s"] = total("evolve.write_frames_csv")
    m["evolve.read_frames_s"] = total("evolve.read_frames_csv")
    frames = list(out.rglob(FRAMES))
    if frames:
        m["evolve.frames_bytes"] = max(p.stat().st_size for p in frames)
    m["dataset.prepare_split_s"] = total("dataset.prepare_split")
    if res["dataset.prepare_split"]:
        split = res["dataset.prepare_split"][-1]
        m["dataset.train_pairs"], m["dataset.test_pairs"] = len(split.train), len(split.test)
    m["surrogate.forward_ms"] = per_call("surrogate.forward", 1e3)
    m["surrogate.backward_ms"] = per_call("surrogate.backward", 1e3)
    m["surrogate.adam_ms"] = per_call("surrogate.adam_step", 1e3)
    if res["surrogate.train"]:
        history = res["surrogate.train"][-1][1]
        m["surrogate.epoch_s"] = stats["surrogate.train"].total_s / len(history.train_mse)
        m["surrogate.final_train_mse"] = history.train_mse[-1]
    m["surrogate.predict_onestep_s"] = total("surrogate.predict_one_step")
    steps, _ = tracer.child_total_s("surrogate.predict_rollout", "surrogate.forward")
    if steps:
        m["surrogate.rollout_step_ms"] = stats["surrogate.predict_rollout"].total_s / steps * 1e3
    m["surrogate.save_checkpoint_s"] = per_call("surrogate.save_checkpoint")
    m["surrogate.load_checkpoint_s"] = per_call("surrogate.load_checkpoint")
    ckpts = list(out.rglob("model.ckpt"))
    if ckpts:
        m["surrogate.checkpoint_bytes"] = max(p.stat().st_size for p in ckpts)
    m["compare.build_report_s"] = per_call("compare.build_report")
    if res["compare.build_report"]:
        report = res["compare.build_report"][-1]
        m["compare.test_mse"] = report.mean_mse
        m["compare.clamped_values"] = report.clamped_values
        m["compare.crit9_share"] = crit9_share(out, cfg)
    m["trace.spans"] = len(tracer.spans)
    return m, records


def run_traced(b: Bench, plan: Plan) -> tuple[dict, dict]:
    cfg = run_config(b.scale, plan.config)
    tracer = tracing.Tracer(CAPTURE)
    plain_s, traced_s = replay(plan, [(b.work / "untraced", None), (b.work / "traced", tracer)], b)
    untraced_tree = tree_digest(b.work / "untraced")
    b.check(
        untraced_tree == tree_digest(b.work / "traced"),
        "traced replay outputs differ from the untraced replay",
    )
    b.check(bool(untraced_tree), "replay wrote no outputs")
    metrics, records = layer_metrics(tracer, plan, b.work / "traced", cfg)
    for n, rec in records.items():
        gate_solver(b, n, rec)
    metrics["trace.overhead_s"] = traced_s - plain_s
    sources = {k: "replay" for k, v in metrics.items() if v is not None}

    missing = [k for k, v in metrics.items() if v is None]
    probe_tracer = None
    if missing:
        # functions this workload never calls are timed on one default epoch
        probe = Plan([(n, [*a, "--training.epochs", "1"]) for n, a in plan_for("pipeline-default", b.scale, 0).stages])
        probe_tracer = tracing.Tracer(CAPTURE)
        replay(probe, [(b.work / "probe", probe_tracer)], b)
        probe_metrics, _ = layer_metrics(probe_tracer, probe, b.work / "probe", run_config(b.scale))
        for k in missing:
            metrics[k] = probe_metrics[k]
            sources[k] = "probe"
    b.check(all(v is not None for v in metrics.values()), "some per-layer metric has no value")

    spans = tracer.as_records() + (probe_tracer.as_records() if probe_tracer else [])
    WORK_PARENT.mkdir(exist_ok=True)
    (WORK_PARENT / "spans.json").write_text(json.dumps(spans))
    table = sorted(tracer.stats().items(), key=lambda kv: -kv[1].self_s)
    detail = {
        "untraced_replay_s": plain_s,
        "traced_replay_s": traced_s,
        "stage_layers": tracer.stage_layers(),
        "sources": sources,
        "solver_records": records,
        "functions": {n: vars(s) for n, s in table},
    }
    return metrics, detail


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git(["rev-parse", "HEAD"]),
    }


def git(args: list[str]) -> str | None:
    """git output in the checkout, or None when the checkout is not a repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def stage_summary(b: Bench) -> dict:
    return {
        name: {
            "runs": len(walls),
            "median_s": statistics.median(walls),
            "min_s": min(walls),
            "max_s": max(walls),
            "median_cpu_s": statistics.median(b.stage_cpu_s[name]),
            "peak_rss_mb": b.stage_rss_mb[name],
        }
        for name, walls in b.stage_s.items()
    }


def print_stage_table(stages: dict) -> None:
    columns = ("runs", "median_s", "min_s", "max_s", "median_cpu_s", "peak_rss_mb")
    print(f"{'stage':<20} " + " ".join(f"{c:>12}" for c in columns))
    for name, row in stages.items():
        print(f"{name:<20} {row['runs']:>12} " + " ".join(f"{row[c]:>12.4f}" for c in columns[1:]))


def print_layer_table(metrics: dict, detail: dict) -> None:
    print(f"{'per-layer metric':<30} {'value':>14} {'unit':<9} source")
    for name, unit in PER_LAYER.items():
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:<30} {shown:>14} {unit:<9} {detail['sources'].get(name, '-')}")
    layers = tracing.LAYERS
    print(f"{'self s by stage':<20} " + " ".join(f"{layer:>10}" for layer in layers))
    for stage, by_layer in detail["stage_layers"].items():
        print(f"{stage:<20} " + " ".join(f"{by_layer.get(layer, 0.0):>10.4f}" for layer in layers))
    print(f"{'function':<34} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    for name, s in list(detail["functions"].items())[:20]:
        print(f"{name:<34} {s['calls']:>7} {s['total_s']:>10.4f} {s['self_s']:>10.4f}")


def _number(value) -> float | None:
    """A metric value as a JSON number; None (null) only when a failed run never measured it."""
    return None if value is None else float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "qwave" / "__init__.py").is_file():
        print(f"error: no qwave sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    status_before = git(["status", "--porcelain"])
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    b = Bench(work, SCALES[args.scale])
    metrics: dict = {}
    detail: dict = {}
    try:
        setup_s, qwave_file = measure_setup(b)
        detail.update(qwave_file=qwave_file, setup_s=setup_s)
        plan = plan_for(args.workload, b.scale, args.seed)
        if args.trace:
            metrics, traced = run_traced(b, plan)
            detail.update(traced)
        else:
            measured = RUNNERS[args.workload](b, plan, args.seconds)
            metrics = {"setup_s": setup_s, "pipeline_s": measured["pipeline_s"], "peak_rss_mb": b.peak_rss_mb()}
            detail["test_mse"] = measured.get("test_mse")
    except Exception:  # a broken program must still yield a result that says so
        traceback.print_exc()
        b.check(False, f"{args.workload} raised {sys.exc_info()[1]!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if status_before is not None:
        b.check(git(["status", "--porcelain"]) == status_before, "the run changed `git status`")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} scale {args.scale}")
    if args.trace and "sources" in detail:
        print_layer_table(metrics, detail)
    detail["stages"] = stage_summary(b)
    if b.stage_s:
        print_stage_table(detail["stages"])
    detail.update(
        error_rate=len(b.failures) / b.attempted,
        failures=b.failures,
        environment=environment(),
    )
    print("detail " + json.dumps(detail, default=float))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {k: {"value": _number(metrics.get(k)), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
