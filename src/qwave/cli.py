"""Command-line pipeline: simulate, table, export-dataset, train, predict,
compare, snapshot.

Commands compose through fixed filenames inside io.output_dir, so each
step is restartable on its own.  Exit codes: 0 success, 1 config error,
2 numerical failure, 3 missing artifact.

The dataset, surrogate and compare modules are imported inside the stages
that use them, so `simulate`, which every run starts with, loads none.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
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
            f"--{key}", dest=_override_dest(key), metavar="V", type=key_type(key),
            default=argparse.SUPPRESS,
        )

    parser = _CleanArgumentParser(
        prog="qwave", parents=[common], description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sim = sub.add_parser(
        "simulate", parents=[common],
        help="run the evolution; write frames and conservation CSVs",
    )
    sim.add_argument("--dump-eigen", action="store_true", help="also write the eigendecomposition CSV")
    tab = sub.add_parser(
        "table", parents=[common], help="print density values at selected positions and times"
    )
    tab.add_argument("--times", default="0,0.5,1", help="comma-separated times (default 0,0.5,1)")
    tab.add_argument("--indices", default="0,1,2,3,4", help="comma-separated grid indices")
    sub.add_parser(
        "export-dataset", parents=[common],
        help="fit the scaler on the training frames; write scaler.txt",
    )
    sub.add_parser(
        "train", parents=[common], help="train the surrogate; write checkpoint and loss CSV"
    )
    pred = sub.add_parser(
        "predict", parents=[common], help="predict test-horizon frames with a trained model"
    )
    pred.add_argument("--mode", choices=sorted(PRED_FILES), default="one-step")
    comp = sub.add_parser(
        "compare", parents=[common],
        help="score predictions against simulated frames; write report.csv",
    )
    comp.add_argument("--mode", choices=sorted(PRED_FILES), default="one-step")
    snap = sub.add_parser(
        "snapshot", parents=[common],
        help="write x/truth/prediction columns for selected times",
    )
    snap.add_argument("--times", required=True, help="comma-separated times, e.g. 4.1,5.0")
    snap.add_argument("--mode", choices=sorted(PRED_FILES), default="one-step")
    return parser


def _override_dest(key: str) -> str:
    return "override_" + key.replace(".", "_")


def _parse_list(text: str, flag: str, cast: type) -> list:
    """Comma-separated values of type cast; ConfigError naming flag otherwise."""
    try:
        values = [cast(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated {cast.__name__}s, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None)
    cfg = load_config(config_path) if config_path else RunConfig()
    overrides = {}
    for key in config_keys():
        # an unset flag leaves no attribute; a set one may hold None (clip "none")
        if hasattr(args, _override_dest(key)):
            overrides[key] = getattr(args, _override_dest(key))
    return validate_config(apply_overrides(cfg, overrides))


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.io_output_dir, exist_ok=True)
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
    return dsm.train_frame_count(_n_frames(cfg), cfg.dataset_lookback, cfg.dataset_split_fraction)


def _clip_rows(start, stop, n: int) -> tuple[int, int]:
    """[start, stop) moved inside [0, n), holding at least one row."""
    start = int(min(max(start, 0), n - 1))
    return start, int(min(max(stop, start + 1), n))


def _rows_near(cfg: RunConfig, times: list[float]) -> tuple[int, int]:
    """The frames.csv rows that span the frames nearest to times.

    Row k is at t = k dt, so the frame nearest t is row floor(t/dt) or the
    next; one more row on either side keeps the pick the whole table's
    when t/dt rounds across an integer.
    """
    steps = np.floor(np.asarray(times, dtype=float) / cfg.evolution_dt)
    if np.isnan(steps).any():
        raise ConfigError(f"times must be numbers, got {list(times)}")
    return _clip_rows(steps.min() - 1, steps.max() + 3, _n_frames(cfg))


def _check_times(cfg: RunConfig, path: str, times: np.ndarray, first_step: int) -> None:
    """Row j of times must be at (first_step + j) * evolution.dt exactly."""
    expected = cfg.evolution_dt * np.arange(first_step, first_step + len(times))
    bad = np.flatnonzero(times != expected)
    if bad.size:
        j = int(bad[0])
        raise ConfigError(
            f"{path} has t={float(times[j])!r} for step {first_step + j}, "
            f"but evolution.dt={cfg.evolution_dt!r} puts it at t={float(expected[j])!r}"
        )


def _record(cfg: RunConfig, start: int = 0, stop: int | None = None) -> ev.EvolutionRecord:
    """Rows [start, stop) of frames.csv (default: all) as a record.

    frames.csv must hold evolution.n_steps + 1 rows, and the rows read must
    lie at t = k * evolution.dt exactly; ConfigError names the key otherwise.
    """
    grid = dz.make_grid(cfg.grid_a, cfg.grid_b, cfg.grid_n_points)
    path = _require(cfg, FRAMES_FILE, "simulate")
    n = _n_frames(cfg)
    try:
        record = ev.record_from_frames_csv(
            grid, cfg.evolution_dt, cfg.evolution_normalization_mode, path, start, stop, n
        )
    except FrameCountError as exc:
        raise ConfigError(
            f"{path} has {exc.rows} frames, but evolution.n_steps={n - 1} gives {n}"
        ) from exc
    _check_times(cfg, path, record.times, start)
    return record


def _load_scaler(cfg: RunConfig) -> dsm.Scaler:
    from . import dataset as dsm
    return dsm.load_scaler(_require(cfg, SCALER_FILE, "export-dataset"))


def _load_split(cfg: RunConfig, start: int, stop: int) -> dsm.SplitDataset:
    """The windows of frames.csv rows [start, stop), scaled and split as on the whole table."""
    from . import dataset as dsm
    record = _record(cfg, start, stop)
    return dsm.prepare_split(
        record.densities, record.times, cfg.dataset_lookback, cfg.dataset_split_fraction,
        _load_scaler(cfg), start, _n_frames(cfg),
    )


def _load_predictions(
    cfg: RunConfig, mode: str, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(target times, scaled predictions) in rows [start, stop) of the mode's prediction file.

    Row j predicts frame n_fit + j, so the file must hold one row per test
    frame, each at its frame's time; ConfigError names the keys otherwise.
    """
    path = _require(cfg, PRED_FILES[mode], f"predict --mode {mode}")
    n_fit, n_test = _n_fit(cfg), _n_frames(cfg) - _n_fit(cfg)
    try:
        times, preds = ev.read_frames_csv(path, start, stop, n_test)
    except FrameCountError as exc:
        raise ConfigError(
            f"{path} has {exc.rows} frames, but evolution.n_steps={cfg.evolution_n_steps}, "
            f"dataset.lookback={cfg.dataset_lookback} and "
            f"dataset.split_fraction={cfg.dataset_split_fraction!r} give {n_test} test frames"
        ) from exc
    if preds.shape[1] != cfg.grid_n_points:
        raise ConfigError(f"{path} has {preds.shape[1]} columns, expected {cfg.grid_n_points}")
    _check_times(cfg, path, times, n_fit + start)
    return times, preds


def cmd_simulate(cfg: RunConfig, dump_eigen: bool = False) -> int:
    record = _simulate(cfg)
    ev.write_frames_csv(record.times, record.densities, _out_path(cfg, FRAMES_FILE))
    ev.write_conservation_csv(record, _out_path(cfg, CONSERVATION_FILE))
    if dump_eigen:
        sp.write_eigen_csv(record.decomposition, _out_path(cfg, EIGEN_FILE))
    drift = float(np.max(record.conservation_log))
    print(
        f"simulate: wrote {len(record.times)} frames to "
        f"{_out_path(cfg, FRAMES_FILE)} (max norm drift {drift:.3e})"
    )
    return 0


def cmd_table(cfg: RunConfig, times: list[float], indices: list[int]) -> int:
    from . import compare as cp
    if os.path.exists(os.path.join(cfg.io_output_dir, FRAMES_FILE)):
        record = _record(cfg, *_rows_near(cfg, times))
    else:
        record = _simulate(cfg)  # compute on the fly; nothing is written
    text = cp.render_table(record, times, indices)
    sys.stdout.write(text)
    with atomic_text(_out_path(cfg, "table.txt")) as fh:
        fh.write(text)
    return 0


def cmd_export_dataset(cfg: RunConfig) -> int:
    from . import dataset as dsm
    n_fit = _n_fit(cfg)
    scaler = dsm.fit_scaler(_record(cfg, 0, n_fit).densities)
    dsm.save_scaler(scaler, _out_path(cfg, SCALER_FILE))
    # the train windows end at frame n_fit - 1; every later frame is a test target
    print(
        f"export-dataset: scaler fit on frames[0:{n_fit}] "
        f"(min {scaler.min:.6g}, max {scaler.max:.6g}); "
        f"{n_fit - cfg.dataset_lookback} train / {_n_frames(cfg) - n_fit} test pairs"
    )
    return 0


def cmd_train(cfg: RunConfig) -> int:
    from . import surrogate as sg
    split = _load_split(cfg, 0, _n_fit(cfg))  # holds the train windows only
    model = sg.init_model(cfg.grid_n_points, cfg.training_hidden_dim, cfg.training_rng_seed)
    train_cfg = sg.TrainConfig(
        epochs=cfg.training_epochs,
        rng_seed=cfg.training_rng_seed,
        lr=cfg.training_lr,
        clip_norm=cfg.training_clip,
    )
    trained, history = sg.train(model, split, train_cfg)
    sg.save_checkpoint(trained, _out_path(cfg, CHECKPOINT_FILE))
    sg.write_loss_csv(history, _out_path(cfg, LOSS_FILE))
    print(
        f"train: {cfg.training_epochs} epochs on {len(split.train)} pairs; "
        f"epoch MSE {history.train_mse[0]:.6e} -> {history.train_mse[-1]:.6e}"
    )
    return 0


def cmd_predict(cfg: RunConfig, mode: str) -> int:
    from . import surrogate as sg
    split = _load_split(cfg, _n_fit(cfg) - cfg.dataset_lookback, _n_frames(cfg))  # test windows only
    model = sg.load_checkpoint(_require(cfg, CHECKPOINT_FILE, "train"))
    for field, got, key, want in (
        ("input_dim", model.input_dim, "grid.n_points", cfg.grid_n_points),
        ("hidden_dim", model.hidden_dim, "training.hidden_dim", cfg.training_hidden_dim),
    ):
        if got != want:
            raise ConfigError(f"checkpoint {field} {got} does not match {key} {want}")
    if mode == "one-step":
        preds = sg.predict_one_step(model, split.test.inputs)
    else:
        preds = sg.predict_rollout(model, split.test.inputs[0], len(split.test))
    # the frames.csv layout, in scaled units; t is each target frame's time
    ev.write_frames_csv(split.test.target_times, preds, _out_path(cfg, PRED_FILES[mode]))
    print(f"predict: wrote {len(preds)} {mode} frames to {_out_path(cfg, PRED_FILES[mode])}")
    return 0


def cmd_compare(cfg: RunConfig, mode: str) -> int:
    from . import compare as cp
    record = _record(cfg, _n_fit(cfg))  # the test targets, the frames the predictions are at
    scaler = _load_scaler(cfg)
    pred_times, preds = _load_predictions(cfg, mode)
    report = cp.build_report(record, preds, pred_times, scaler)
    cp.write_report_csv(report, _out_path(cfg, REPORT_FILE))
    print(
        f"compare ({mode}, {len(report.frames)} frames): "
        f"mean mse {report.mean_mse:.6e}, mean mae {report.mean_mae:.6e}, "
        f"mean max_abs_err {report.mean_max_abs_err:.6e}, "
        f"mean peak_position_err {report.mean_peak_position_err:.3f}"
    )
    return 0


def cmd_snapshot(cfg: RunConfig, times: list[float], mode: str) -> int:
    from . import compare as cp
    from . import dataset as dsm
    start, stop = _rows_near(cfg, times)
    record = _record(cfg, start, stop)
    scaler = _load_scaler(cfg)
    n_fit = _n_fit(cfg)
    pred_times, preds = _load_predictions(
        cfg, mode, *_clip_rows(start - n_fit, stop - n_fit, _n_frames(cfg) - n_fit)
    )
    physical = dsm.inverse_transform(scaler, preds)
    recorded = record.times
    for t in times:
        k = int(np.argmin(np.abs(recorded - t)))
        if abs(recorded[k] - t) > cfg.evolution_dt / 2:
            raise ConfigError(f"no recorded frame within dt/2 of t={t}")
        j = int(np.argmin(np.abs(pred_times - recorded[k])))
        if abs(pred_times[j] - recorded[k]) > cfg.evolution_dt / 2:
            raise ConfigError(
                f"t={t} is outside the predicted horizon "
                f"[{n_fit * cfg.evolution_dt:.6g}, {cfg.evolution_n_steps * cfg.evolution_dt:.6g}]"
            )
        path = _out_path(cfg, f"snapshot_{recorded[k]:.2f}.csv")
        cp.write_snapshot_csv(record.config.grid, record.densities[k], physical[j], path)
        print(f"snapshot: wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        cfg = _resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg, dump_eigen=args.dump_eigen)
        if args.command == "table":
            return cmd_table(
                cfg,
                _parse_list(args.times, "--times", float),
                _parse_list(args.indices, "--indices", int),
            )
        if args.command == "export-dataset":
            return cmd_export_dataset(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.mode)
        if args.command == "compare":
            return cmd_compare(cfg, args.mode)
        if args.command == "snapshot":
            return cmd_snapshot(cfg, _parse_list(args.times, "--times", float), args.mode)
        raise ConfigError(f"unknown command {args.command!r}")
    except MissingArtifactError as exc:
        print(f"error: missing-artifact: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
