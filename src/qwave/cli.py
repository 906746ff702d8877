"""Command-line pipeline: simulate, table, export-dataset, train, predict,
compare, snapshot.

Commands compose through fixed filenames inside io.output_dir, so each
step is restartable on its own.  Exit codes: 0 success, 1 config error
(an artifact path that cannot be read or written, or a run too large for
memory, counts as one), 2 numerical failure, 3 missing artifact.

The dataset, surrogate and compare modules are imported inside the stages
that use them, so `simulate`, which every run starts with, loads none.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from . import discretize as dz
from . import evolve as ev
from . import spectral as sp
from .artifacts import atomic_text
from .config import (
    RunConfig,
    apply_overrides,
    config_keys,
    key_type,
    load_config,
    validate_config,
)
from .errors import ConfigError, FrameCountError, MissingArtifactError, NumericalError

if TYPE_CHECKING:
    from . import dataset as dsm
FRAMES_FILE = "frames.csv"
CONSERVATION_FILE = "conservation.csv"
SCALER_FILE = "scaler.txt"
CHECKPOINT_FILE = "model.ckpt"
LOSS_FILE = "loss.csv"
PRED_FILES = {"one-step": "pred_onestep.csv", "rollout": "pred_rollout.csv"}
REPORT_FILE = "report.csv"
EIGEN_FILE = "eigen.csv"


class _CleanArgumentParser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with status 2, and
    takes the token after a flag as its value even when it starts with '-',
    as in `--grid.a -5e0` or `--times -1,0.5`, which argparse alone reads as
    two flags.  A token that is itself a flag of this parser stays a flag."""

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        flags = self._option_string_actions
        bound = []
        for arg in sys.argv[1:] if args is None else args:
            action = flags.get(bound[-1]) if bound else None
            if action is not None and action.nargs != 0 and arg.startswith("-") and arg not in flags:
                bound[-1] += "=" + arg
            else:
                bound.append(arg)
        return super().parse_known_args(bound, namespace)


def _build_parser() -> _CleanArgumentParser:
    # config flags are valid both before and after the subcommand; SUPPRESS
    # keeps an unset position from clobbering a value parsed in the other
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", default=argparse.SUPPRESS, help="key=value config file"
    )
    for key in config_keys():
        common.add_argument(
            f"--{key}", dest=key, metavar="V", type=key_type(key), default=argparse.SUPPRESS
        )
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=sorted(PRED_FILES), default="one-step")

    parser = _CleanArgumentParser(
        prog="qwave", parents=[common], description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(metavar="COMMAND")

    def add(name, run, help, *parents):
        cmd = sub.add_parser(name, parents=[common, *parents], help=help)
        cmd.set_defaults(run=run)
        return cmd

    sim = add("simulate", cmd_simulate, "run the evolution; write frames and conservation CSVs")
    sim.add_argument("--dump-eigen", action="store_true", help="also write the eigendecomposition CSV")
    tab = add("table", cmd_table, "print density values at selected positions and times")
    tab.add_argument(
        "--times", type=_list_of(float), default="0,0.5,1",
        help="comma-separated times (default 0,0.5,1)",
    )
    tab.add_argument(
        "--indices", type=_list_of(int), default="0,1,2,3,4", help="comma-separated grid indices"
    )
    add("export-dataset", cmd_export_dataset, "fit the scaler on the training frames; write scaler.txt")
    add("train", cmd_train, "train the surrogate; write checkpoint and loss CSV")
    add("predict", cmd_predict, "predict test-horizon frames with a trained model", mode)
    add("compare", cmd_compare, "score predictions against simulated frames; write report.csv", mode)
    snap = add("snapshot", cmd_snapshot, "write x/truth/prediction columns for selected times", mode)
    snap.add_argument(
        "--times", type=_list_of(float), required=True, help="comma-separated times, e.g. 4.1,5.0"
    )
    return parser


def _list_of(cast: type) -> Callable[[str], list]:
    """argparse type: comma-separated values of type cast, at least one."""

    def parse(text: str) -> list:
        try:
            values = [cast(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated {cast.__name__}s, got {text!r}"
            ) from exc
        if not values:
            raise argparse.ArgumentTypeError("must name at least one value")
        return values

    return parse


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None)
    cfg = load_config(config_path) if config_path else RunConfig()
    # an unset flag leaves no attribute; a set one may hold None (clip "none")
    overrides = {key: getattr(args, key) for key in config_keys() if key in args}
    return validate_config(apply_overrides(cfg, overrides))


def _out_path(cfg: RunConfig, name: str) -> str:
    try:
        os.makedirs(cfg.io_output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"io.output_dir {cfg.io_output_dir!r} cannot be made a directory: {exc.strerror}"
        ) from exc
    return os.path.join(cfg.io_output_dir, name)


def _require(cfg: RunConfig, name: str, producer: str) -> str:
    path = os.path.join(cfg.io_output_dir, name)
    if not os.path.exists(path):
        raise MissingArtifactError(f"{path} not found; run `qwave {producer}` first")
    return path


def _simulate(cfg: RunConfig) -> ev.EvolutionRecord:
    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, cfg.grid_n_points)
    h = dz.assemble_hamiltonian(dz.laplacian(grid), dz.harmonic_potential(grid))
    run = ev.EvolutionConfig(
        grid=grid,
        dt=cfg.evolution_dt,
        n_steps=cfg.evolution_n_steps,
        normalization_mode=cfg.evolution_normalization_mode,
    )
    return ev.run_evolution(run, h)


def _n_frames(cfg: RunConfig) -> int:
    return cfg.evolution_n_steps + 1


def _n_fit(cfg: RunConfig) -> int:
    """Leading frames of the train windows; frames n_fit onward are the test targets."""
    from . import dataset as dsm
    n_fit = dsm.train_frame_count(_n_frames(cfg), cfg.dataset_lookback, cfg.dataset_split_fraction)
    if n_fit - cfg.dataset_lookback < 1:
        raise ConfigError(
            f"dataset.split_fraction={cfg.dataset_split_fraction!r} leaves no train pair of the "
            f"{_n_frames(cfg) - cfg.dataset_lookback} pairs that evolution.n_steps="
            f"{cfg.evolution_n_steps} and dataset.lookback={cfg.dataset_lookback} give"
        )
    return n_fit


def _frames_near(cfg: RunConfig, times: list[float]) -> tuple[float, float]:
    """Frames [lo, hi) that span the frames nearest to times.

    Frame k is at t = k dt, so the frame nearest t is floor(t/dt) or the
    next; one more frame on either side keeps the pick the whole table's
    when t/dt rounds across an integer.
    """
    steps = np.floor(np.asarray(times, dtype=float) / cfg.evolution_dt)
    if np.isnan(steps).any():
        raise ConfigError(f"times must be numbers, got {list(times)}")
    return steps.min() - 1, steps.max() + 3


def _read_frames(
    cfg: RunConfig, lo: float, hi: float, mode: str | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """(first frame read, times, values) of frames [lo, hi) from frames.csv or,
    given a mode, from its prediction file.

    Frame k is at t = k * evolution.dt.  Row j of frames.csv is frame j and
    row j of a prediction file is frame n_fit + j, so the two tables hold
    frames [0, n_steps] and [n_fit, n_steps].  [lo, hi) is moved inside the
    table's frames, holding at least one.  The table's row count and width,
    and the times of the rows read, must match the config; ConfigError
    names the keys otherwise.
    """
    n = _n_frames(cfg)
    if mode is None:
        path, first = _require(cfg, FRAMES_FILE, "simulate"), 0
        count = f"evolution.n_steps={n - 1} gives {n}"
    else:
        path, first = _require(cfg, PRED_FILES[mode], f"predict --mode {mode}"), _n_fit(cfg)
        count = (
            f"evolution.n_steps={cfg.evolution_n_steps}, "
            f"dataset.lookback={cfg.dataset_lookback} and "
            f"dataset.split_fraction={cfg.dataset_split_fraction!r} give {n - first} test frames"
        )
    lo = int(min(max(lo, first), n - 1))
    hi = int(min(max(hi, lo + 1), n))
    try:
        times, values = ev.read_frames_csv(path, lo - first, hi - first, n - first)
    except FrameCountError as exc:
        raise ConfigError(f"{path} has {exc.rows} frames, but {count}") from exc
    if values.shape[1] != cfg.grid_n_points:
        raise ConfigError(
            f"{path} has {values.shape[1]} columns, expected {cfg.grid_n_points} from grid.n_points"
        )
    expected = cfg.evolution_dt * np.arange(lo, hi)
    bad = np.flatnonzero(times != expected)
    if bad.size:
        j = int(bad[0])
        raise ConfigError(
            f"{path} has t={float(times[j])!r} for step {lo + j}, "
            f"but evolution.dt={cfg.evolution_dt!r} puts it at t={float(expected[j])!r}"
        )
    return lo, times, values


def _record(cfg: RunConfig, lo: float, hi: float) -> ev.EvolutionRecord:
    """Frames [lo, hi) of frames.csv, as _read_frames reads them, as a record."""
    first, times, frames = _read_frames(cfg, lo, hi)
    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, cfg.grid_n_points)
    steps = first + len(times) - 1  # the step of the last frame read
    run = ev.EvolutionConfig(grid, cfg.evolution_dt, steps, cfg.evolution_normalization_mode)
    return ev.EvolutionRecord(run, times, frames, None)


def _load_scaler(cfg: RunConfig) -> dsm.Scaler:
    from . import dataset as dsm
    return dsm.load_scaler(_require(cfg, SCALER_FILE, "export-dataset"))


def _load_split(cfg: RunConfig, lo: int, hi: int) -> dsm.SplitDataset:
    """The windows of frames [lo, hi), scaled and split as on the whole table."""
    from . import dataset as dsm
    first, times, frames = _read_frames(cfg, lo, hi)
    return dsm.prepare_split(
        frames, times, cfg.dataset_lookback, cfg.dataset_split_fraction,
        _load_scaler(cfg), first, _n_frames(cfg),
    )


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    record = _simulate(cfg)
    ev.write_frames_csv(record.times, record.densities, _out_path(cfg, FRAMES_FILE))
    ev.write_conservation_csv(record, _out_path(cfg, CONSERVATION_FILE))
    if args.dump_eigen:
        sp.write_eigen_csv(record.decomposition, _out_path(cfg, EIGEN_FILE))
    drift = float(np.max(record.conservation_log))
    print(
        f"simulate: wrote {len(record.times)} frames to "
        f"{_out_path(cfg, FRAMES_FILE)} (max norm drift {drift:.3e})"
    )


def cmd_table(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import compare as cp
    if os.path.exists(os.path.join(cfg.io_output_dir, FRAMES_FILE)):
        record = _record(cfg, *_frames_near(cfg, args.times))
    else:
        record = _simulate(cfg)  # compute on the fly; nothing is written
    text = cp.render_table(record, args.times, args.indices)
    sys.stdout.write(text)
    with atomic_text(_out_path(cfg, "table.txt")) as fh:
        fh.write(text)


def cmd_export_dataset(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import dataset as dsm
    n_fit = _n_fit(cfg)
    scaler = dsm.fit_scaler(_read_frames(cfg, 0, n_fit)[2])
    dsm.save_scaler(scaler, _out_path(cfg, SCALER_FILE))
    # the train windows end at frame n_fit - 1; every later frame is a test target
    print(
        f"export-dataset: scaler fit on frames[0:{n_fit}] "
        f"(min {scaler.min:.6g}, max {scaler.max:.6g}); "
        f"{n_fit - cfg.dataset_lookback} train / {_n_frames(cfg) - n_fit} test pairs"
    )


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import surrogate as sg
    split = _load_split(cfg, 0, _n_fit(cfg))  # holds the train windows only
    model = sg.init_model(cfg.grid_n_points, cfg.training_hidden_dim, cfg.training_rng_seed)
    trained, history = sg.train(
        model, split.train, epochs=cfg.training_epochs, lr=cfg.training_lr, clip_norm=cfg.training_clip
    )
    sg.save_checkpoint(trained, _out_path(cfg, CHECKPOINT_FILE))
    sg.write_loss_csv(history, _out_path(cfg, LOSS_FILE))
    print(
        f"train: {cfg.training_epochs} epochs on {len(split.train)} pairs; "
        f"epoch MSE {history.train_mse[0]:.6e} -> {history.train_mse[-1]:.6e}"
    )


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import surrogate as sg
    split = _load_split(cfg, _n_fit(cfg) - cfg.dataset_lookback, _n_frames(cfg))  # test windows only
    model = sg.load_checkpoint(_require(cfg, CHECKPOINT_FILE, "train"))
    for field, got, key, want in (
        ("input_dim", model.input_dim, "grid.n_points", cfg.grid_n_points),
        ("hidden_dim", model.hidden_dim, "training.hidden_dim", cfg.training_hidden_dim),
    ):
        if got != want:
            raise ConfigError(f"checkpoint {field} {got} does not match {key} {want}")
    mode = args.mode
    if mode == "one-step":
        preds = sg.predict_one_step(model, split.test.inputs)
    else:
        preds = sg.predict_rollout(model, split.test.inputs[0], len(split.test))
    # the frames.csv layout, in scaled units; t is each target frame's time
    ev.write_frames_csv(split.test.target_times, preds, _out_path(cfg, PRED_FILES[mode]))
    print(f"predict: wrote {len(preds)} {mode} frames to {_out_path(cfg, PRED_FILES[mode])}")


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import compare as cp
    n_fit, n = _n_fit(cfg), _n_frames(cfg)
    record = _record(cfg, n_fit, n)  # the test targets, the frames the predictions are at
    scaler = _load_scaler(cfg)
    _, pred_times, preds = _read_frames(cfg, n_fit, n, args.mode)
    report = cp.build_report(record, preds, pred_times, scaler)
    cp.write_report_csv(report, _out_path(cfg, REPORT_FILE))
    # logged once report.csv is written, so that a failed write prints only its error line
    if report.clamped_values:
        logging.getLogger(cp.__name__).info(
            "clamped %d negative predicted values to 0 for metrics", report.clamped_values
        )
    print(
        f"compare ({args.mode}, {len(report.frames)} frames): "
        f"mean mse {report.mean_mse:.6e}, mean mae {report.mean_mae:.6e}, "
        f"mean max_abs_err {report.mean_max_abs_err:.6e}, "
        f"mean peak_position_err {report.mean_peak_position_err:.3f}"
    )


def cmd_snapshot(cfg: RunConfig, args: argparse.Namespace) -> None:
    from . import compare as cp
    from . import dataset as dsm
    lo, hi = _frames_near(cfg, args.times)
    first, times, truth = _read_frames(cfg, lo, hi)
    scaler = _load_scaler(cfg)
    n_fit = _n_fit(cfg)
    pred_first, _, preds = _read_frames(cfg, lo, hi, args.mode)
    physical = dsm.inverse_transform(scaler, preds)
    picks, names = [], {}
    for t in args.times:
        k = first + cp._nearest_frame(times, t, cfg.evolution_dt)
        if k < n_fit:
            raise ConfigError(
                f"t={t} is outside the predicted horizon "
                f"[{n_fit * cfg.evolution_dt:.6g}, {cfg.evolution_n_steps * cfg.evolution_dt:.6g}]"
            )
        name = f"snapshot_{times[k - first]:.2f}.csv"
        first_t, first_k = names.setdefault(name, (t, k))
        if first_k != k:
            raise ConfigError(f"t={first_t} and t={t} are different frames, but both name {name}")
        picks.append((name, k))
    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, cfg.grid_n_points)
    for name, k in picks:
        path = _out_path(cfg, name)
        cp.write_snapshot_csv(grid, truth[k - first], physical[k - pred_first], path)
        print(f"snapshot: wrote {path}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "run" not in args:
            parser.print_help()
            return 0
        args.run(_resolve_config(args), args)
        return 0
    except MissingArtifactError as exc:
        print(f"error: missing-artifact: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an artifact path that cannot be read or written, e.g. a directory
        path = exc.filename2 or exc.filename  # os.replace's target, or the file opened
        detail = f"{path}: {exc.strerror}" if path else exc
        print(f"error: config: {detail}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        hint = "lower grid.n_points, evolution.n_steps or training.hidden_dim"
        print(f"error: config: the run does not fit in memory ({exc}); {hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
