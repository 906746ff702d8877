import ast
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwave
from qwave import cli
from qwave import compare as cp
from qwave import dataset as dsm
from qwave import evolve as ev
from qwave import spectral as sp
from qwave.config import (
    RunConfig,
    apply_overrides,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
)
from qwave.errors import ConfigError
from qwave.evolve import NORMALIZATION_MODES

# small, fast settings exercising every pipeline stage
FAST = [
    "--grid.n_points", "40",
    "--evolution.n_steps", "30",
    "--training.epochs", "3",
    "--training.hidden_dim", "8",
]


def _cli(out_dir, *argv):
    return cli.main([*FAST, "--io.output_dir", str(out_dir), *argv])


def _child_env() -> dict[str, str]:
    """os.environ with this qwave first on PYTHONPATH, for a child interpreter."""
    src = os.path.dirname(os.path.dirname(qwave.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def predicted_run(tmp_path_factory):
    """An output directory after simulate, export-dataset, train and predict at FAST."""
    out = tmp_path_factory.mktemp("run") / "out"
    for argv in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
        assert _cli(out, *argv) == 0
    return out


# every finite float, with the edges of the format, and values whose squares
# leave it, drawn explicitly
_FLOATS = st.one_of(
    st.sampled_from([
        -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e200, -1e200,
        1.7976931348623157e308, -1.7976931348623157e308,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_CONFIGS = st.builds(
    RunConfig,
    grid_a=_FLOATS,
    grid_b=_FLOATS,
    grid_n_points=st.integers(),
    evolution_dt=_FLOATS,
    evolution_n_steps=st.integers(),
    evolution_normalization_mode=st.sampled_from(NORMALIZATION_MODES),
    dataset_lookback=st.integers(),
    dataset_split_fraction=_FLOATS,
    training_epochs=st.integers(),
    training_lr=_FLOATS,
    training_hidden_dim=st.integers(),
    training_rng_seed=st.integers(),
    training_clip=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    io_output_dir=st.text("abcXYZ019._-/", min_size=1),
)


class TestConfigFile:
    def test_parse_serialize_round_trip(self):
        cfg = RunConfig(grid_a=-3.5, training_clip=2.0, io_output_dir="results")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_round_trip(self):
        assert parse_config(serialize_config(RunConfig())) == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("grid.zz=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("grid.n_points=many\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.a=1\ngrid.a=2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("grid.a\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\ngrid.a=-2.5\n")
        assert cfg.grid_a == -2.5

    def test_clip_none_sentinel(self):
        assert parse_config("training.clip=none\n").training_clip is None
        assert parse_config("training.clip=0.5\n").training_clip == 0.5

    @given(_CONFIGS)
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_clip_flag_none_wins_over_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("training.clip=0.5\n")
        parser = cli._build_parser()
        args = parser.parse_args(["--config", str(path), "train"])
        assert cli._resolve_config(args).training_clip == 0.5
        args = parser.parse_args(["--config", str(path), "train", "--training.clip", "none"])
        assert cli._resolve_config(args).training_clip is None

    def test_bad_flag_value_names_the_flag(self, capsys):
        assert cli.main(["--training.clip", "tight", "train"]) == 1
        assert "--training.clip" in capsys.readouterr().err

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["--config", str(path), "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and str(path) in err and "UTF-8" in err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.txt")

    def test_overrides_win(self):
        cfg = parse_config("grid.n_points=100\n")
        out = apply_overrides(cfg, {"grid.n_points": 80})
        assert out.grid_n_points == 80

    def test_validation_ranges(self):
        for bad in (
            {"grid.b": -5.0},
            {"grid.n_points": 2},
            {"evolution.dt": 0.0},
            {"evolution.n_steps": 0},
            {"evolution.normalization_mode": "l1"},
            {"dataset.lookback": 0},
            {"dataset.split_fraction": 1.0},
            {"training.epochs": 0},
            {"training.lr": -1.0},
            {"training.hidden_dim": 0},
            {"training.clip": -1.0},
            {"io.output_dir": ""},
            {"grid.a": -np.inf},
            {"grid.a": np.nan},
            {"grid.b": np.inf},
            {"evolution.dt": np.inf},
            {"training.lr": np.inf},
            {"training.lr": np.nan},
            {"training.clip": np.inf},
            {"grid.n_points": 2**63},
            {"grid.n_points": 10**400},
            {"evolution.n_steps": 2**63},
            {"dataset.lookback": 2**63},
            {"training.epochs": 2**63},
            {"training.hidden_dim": 10**30},
            {"training.rng_seed": -1},
        ):
            (key,) = bad
            with pytest.raises(ConfigError, match=re.escape(key)):
                validate_config(apply_overrides(RunConfig(), bad))
        validate_config(apply_overrides(RunConfig(), {"training.epochs": 2**63 - 1}))

    def test_lookback_versus_frames(self):
        cfg = apply_overrides(RunConfig(), {"evolution.n_steps": 3, "dataset.lookback": 4})
        with pytest.raises(ConfigError, match="lookback"):
            validate_config(cfg)


def test_simulate_loads_no_surrogate_dataset_or_compare(tmp_path):
    # every run starts with simulate, in a child process of its own
    code = (
        "import sys; from qwave.cli import main; "
        f"main(['simulate', '--grid.n_points', '40', '--io.output_dir', {str(tmp_path)!r}]); "
        "print(sorted(m for m in sys.modules if m.startswith('qwave.')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True
    )
    loaded = set(ast.literal_eval(run.stdout.splitlines()[-1]))
    assert "qwave.spectral" in loaded
    assert not loaded & {"qwave.surrogate", "qwave.dataset", "qwave.compare"}


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _cli(out, "simulate") == 0
        assert _cli(out, "export-dataset") == 0
        assert _cli(out, "train") == 0
        assert _cli(out, "predict", "--mode", "one-step") == 0
        assert _cli(out, "predict", "--mode", "rollout") == 0
        assert _cli(out, "compare") == 0
        assert _cli(out, "snapshot", "--times", "1.5") == 0
        for name in (
            "frames.csv", "conservation.csv", "scaler.txt", "model.ckpt",
            "loss.csv", "pred_onestep.csv", "pred_rollout.csv", "report.csv",
            "snapshot_1.50.csv",
        ):
            assert (out / name).exists(), name
        text = capsys.readouterr().out
        assert "mean mse" in text

    def test_compare_mode_picks_the_prediction_file(self, tmp_path):
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"],
                     ["predict", "--mode", "one-step"], ["predict", "--mode", "rollout"]):
            assert _cli(out, *argv) == 0
        reports = {}
        for argv in ([], ["--mode", "one-step"], ["--mode", "rollout"]):
            assert _cli(out, "compare", *argv) == 0
            reports[" ".join(argv)] = (out / "report.csv").read_bytes()
        assert reports[""] == reports["--mode one-step"]
        assert reports["--mode rollout"] != reports[""]
        # the rollout report is the one built from pred_rollout.csv
        cfg = RunConfig(grid_n_points=40, evolution_n_steps=30, io_output_dir=str(out))
        scaler = dsm.load_scaler(out / "scaler.txt")
        record = cli._record(cfg, 0, 31)
        times, preds = ev.read_frames_csv(out / "pred_rollout.csv")
        expected = tmp_path / "expected.csv"
        cp.write_report_csv(cp.build_report(record, preds, times, scaler), expected)
        assert reports["--mode rollout"] == expected.read_bytes()

    def test_simulate_frame_count(self, tmp_path):
        out = tmp_path / "out"
        assert _cli(out, "simulate") == 0
        lines = (out / "frames.csv").read_text().splitlines()
        assert len(lines) == 32  # header + 31 frames

    def test_table_from_frames_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        _cli(out, "simulate")
        assert _cli(out, "table", "--times", "0", "--indices", "0,1") == 0
        assert "Index" in capsys.readouterr().out
        assert (out / "table.txt").exists()

    def test_table_on_the_fly_writes_no_frames(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _cli(out, "table", "--times", "0,0.5", "--indices", "0") == 0
        assert not (out / "frames.csv").exists()
        assert "t=0.50" in capsys.readouterr().out

    def test_default_table_reproduces_published_cells(self, tmp_path, capsys):
        # full default grid: the five t=0 cells are the published values
        assert cli.main(["--io.output_dir", str(tmp_path / "o"), "table"]) == 0
        text = capsys.readouterr().out
        for cell in ("7.73e-24", "1.27e-15", "2.66e-10", "3.97e-22", "7.36e-09"):
            assert cell in text

    def test_predict_rejects_mismatched_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        _cli(out, "simulate")
        _cli(out, "export-dataset")
        _cli(out, "train")
        code = cli.main([
            "--grid.n_points", "60", "--evolution.n_steps", "30",
            "--training.hidden_dim", "8", "--io.output_dir", str(out), "predict",
        ])
        assert code in (1, 3)  # stale frames for the larger grid, or width mismatch

    def test_dump_eigen(self, tmp_path):
        out = tmp_path / "out"
        assert _cli(out, "simulate", "--dump-eigen") == 0
        lines = (out / "eigen.csv").read_text().splitlines()
        assert lines[0].startswith("eig_0,")
        assert len(lines) == 2 + 40

    def test_dump_eigen_solves_once(self, tmp_path, monkeypatch):
        # eigen.csv comes from the decomposition the run stepped with
        calls = []
        real = sp.eigendecompose

        def counting(h):
            calls.append(h.n)
            return real(h)

        monkeypatch.setattr(sp, "eigendecompose", counting)
        monkeypatch.setattr(ev, "eigendecompose", counting)
        assert _cli(tmp_path / "out", "simulate", "--dump-eigen") == 0
        assert calls == [40]

    def test_compare_and_snapshot_read_frames_once(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
            assert _cli(out, *argv) == 0
        reads = []
        real = ev.read_frames_csv

        def counting(path, *args):
            reads.append(os.path.basename(path))
            return real(path, *args)

        monkeypatch.setattr(ev, "read_frames_csv", counting)
        assert _cli(out, "compare") == 0
        assert _cli(out, "snapshot", "--times", "1.4") == 0
        assert reads == ["frames.csv", "pred_onestep.csv"] * 2

    @pytest.mark.parametrize("mode", sorted(cli.PRED_FILES))
    def test_snapshot_pairs_each_frame_with_its_prediction(self, predicted_run, tmp_path, capsys, mode):
        # 31 frames and n_fit = 25: prediction row j is frame 25 + j, so the
        # predicted horizon is t in [1.25, 1.5]
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        assert _cli(out, "predict", "--mode", mode) == 0
        assert _cli(out, "snapshot", "--mode", mode, "--times", "1.25,1.35,1.5") == 0
        _, frames = ev.read_frames_csv(out / "frames.csv")
        _, preds = ev.read_frames_csv(out / cli.PRED_FILES[mode])
        physical = np.clip(dsm.inverse_transform(dsm.load_scaler(out / "scaler.txt"), preds), 0.0, None)
        for k, t in ((25, "1.25"), (27, "1.35"), (30, "1.50")):
            snap = np.loadtxt(out / f"snapshot_{t}.csv", delimiter=",", skiprows=1)
            assert snap[:, 1].tobytes() == frames[k].tobytes(), k
            assert snap[:, 2].tobytes() == physical[k - 25].tobytes(), k
        capsys.readouterr()
        assert _cli(out, "snapshot", "--mode", mode, "--times", "1.2") == 1
        assert "t=1.2 is outside the predicted horizon [1.25, 1.5]" in capsys.readouterr().err

    def test_window_views_keep_outputs_byte_identical(self, tmp_path, monkeypatch):
        # windows are views of the scaled frames; stacked copies, as windowize
        # once made, must give the same prediction, report and snapshot bytes
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"]):
            assert _cli(out, *argv) == 0
        stages = (["predict"], ["compare"], ["snapshot", "--times", "1.3,1.5"])
        names = ("pred_onestep.csv", "report.csv", "snapshot_1.30.csv", "snapshot_1.50.csv")
        outputs = []
        for copy_windows in (False, True):
            if copy_windows:
                windowize = dsm.windowize

                def stacked(frames, lookback, times=None):
                    ds = windowize(frames, lookback, times)
                    return dsm.WindowedDataset(
                        np.stack(list(ds.inputs)), ds.targets, ds.target_times
                    )

                monkeypatch.setattr(dsm, "windowize", stacked)
            for argv in stages:
                assert _cli(out, *argv) == 0
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_config_error(self, capsys):
        assert cli.main(["--evolution.n_steps", "0", "simulate"]) == 1
        assert "error: config:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["--bogus", "simulate"]) == 1

    def test_missing_artifact_names_producer(self, tmp_path, capsys):
        out = str(tmp_path / "empty")
        assert cli.main(["--io.output_dir", out, "export-dataset"]) == 3
        assert "qwave simulate" in capsys.readouterr().err
        assert cli.main(["--io.output_dir", out, "train"]) == 3

    def test_missing_checkpoint_names_train(self, tmp_path, capsys):
        out = tmp_path / "out"
        _cli(out, "simulate")
        _cli(out, "export-dataset")
        assert _cli(out, "predict") == 3
        assert "qwave train" in capsys.readouterr().err

    def test_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        _cli(out, "simulate")
        _cli(out, "export-dataset")
        code = _cli(out, "train", "--training.lr", "1e160")
        assert code == 2
        assert "error: numerical:" in capsys.readouterr().err

    def test_eigensolver_failure(self, tmp_path, capsys, monkeypatch):
        def fail(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(sp.np.linalg, "eigh", fail)
        assert _cli(tmp_path / "out", "simulate") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "rows 0:20" in err

    def test_predict_rejects_another_hidden_dim(self, predicted_run, capsys):
        # the checkpoint was trained at FAST's hidden_dim 8
        capsys.readouterr()
        assert _cli(predicted_run, "predict", "--training.hidden_dim", "16") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "training.hidden_dim 16" in err

    def test_bad_snapshot_time(self, tmp_path, capsys):
        out = tmp_path / "out"
        _cli(out, "simulate")
        _cli(out, "export-dataset")
        _cli(out, "train")
        _cli(out, "predict")
        assert _cli(out, "snapshot", "--times", "99") == 1

    def test_truncated_frames_csv_names_the_file(self, tmp_path, capsys):
        # a frames.csv cut mid-row, as a killed writer without atomic replace left it
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
            assert _cli(out, *argv) == 0
        path = out / "frames.csv"
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        capsys.readouterr()
        assert _cli(out, "compare") == 1
        assert f"{path} is not a whole frame CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["table"], ["snapshot", "--times", "1.25"]])
    def test_truncated_frames_csv_refused_outside_the_rows_read(self, tmp_path, capsys, argv):
        # table reads rows [0, 23) and snapshot rows [24, 28) of 31; the cut is in row 30
        out = tmp_path / "out"
        for stage in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
            assert _cli(out, *stage) == 0
        path = out / "frames.csv"
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        capsys.readouterr()
        assert _cli(out, *argv) == 1
        assert f"{path} is not a whole frame CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("evolution.n_steps", "40"), ("evolution.dt", "0.04"), ("grid.n_points", "100")]
    )
    @pytest.mark.parametrize("stage", ["predict", "compare", "table"])
    def test_frames_of_another_run_name_the_key(self, predicted_run, capsys, stage, key, value):
        capsys.readouterr()
        assert _cli(predicted_run, stage, f"--{key}", value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and key in err

    @pytest.mark.parametrize("argv", [["compare"], ["snapshot", "--times", "1.4"]])
    def test_predictions_of_another_split_name_the_keys(self, predicted_run, capsys, argv):
        capsys.readouterr()
        assert _cli(predicted_run, *argv, "--dataset.split_fraction", "0.5") == 1
        err = capsys.readouterr().err
        assert "pred_onestep.csv has 6 frames" in err and "dataset.split_fraction=0.5" in err

    def test_split_without_a_train_pair_names_the_keys(self, tmp_path, capsys):
        # 11 frames give 7 pairs; 0.05 of them floors to no train pair
        out = tmp_path / "out"
        argv = ["--evolution.n_steps", "10", "--dataset.split_fraction", "0.05"]
        assert _cli(out, "simulate", *argv) == 0
        capsys.readouterr()
        assert _cli(out, "export-dataset", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        for key in ("dataset.split_fraction", "dataset.lookback", "evolution.n_steps"):
            assert key in err
        assert not (out / "scaler.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--grid.a", "-1e200", "--grid.b", "1e200"],
        ["simulate", "--grid.a", "-1e-200", "--grid.b", "1e-200"],
        ["table", "--grid.a", "-1e-200", "--grid.b", "1e-200"],
        ["simulate", "--grid.a", "-1e-155", "--grid.b", "1e-155"],
        ["simulate", "--grid.a", "-1e155", "--grid.b", "1e155", "--grid.n_points", "1000"],
    ], ids=["dx-overflows", "dx-underflows", "table-dx-underflows", "dx-squared-subnormal", "a-squared-overflows"])
    def test_grid_outside_the_float_range_names_the_keys(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--io.output_dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config:")
        for key in ("grid.a", "grid.b", "grid.n_points"):
            assert key in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", NORMALIZATION_MODES)
    def test_packet_that_misses_the_grid_is_refused(self, tmp_path, capsys, mode):
        argv = [
            "simulate", "--evolution.n_steps", "4", "--evolution.normalization_mode", mode,
            "--io.output_dir", str(tmp_path / "out"),
        ]
        assert cli.main([*argv, "--grid.a", "20", "--grid.b", "30"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config: the packet") and "[20.0, 30.0]" in line
        assert cli.main([*argv, "--grid.a", "18", "--grid.b", "28"]) == 0

    def test_time_step_whose_phases_keep_no_digit(self, tmp_path, capsys):
        # max|lam| is 799.6 on the default grid: dt 1e13 turns a phase by 8.0e15 rad
        argv = ["simulate", "--evolution.n_steps", "4", "--io.output_dir", str(tmp_path / "out")]
        assert cli.main([*argv, "--evolution.dt", "1e13"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config: time step 10000000000000.0 turns a phase by 8e+15")
        assert "1e+15" in line
        assert cli.main([*argv, "--evolution.dt", "1e12"]) == 0

    def test_bad_times_syntax(self, tmp_path):
        out = tmp_path / "out"
        _cli(out, "simulate")
        assert _cli(out, "table", "--times", "abc") == 1

    def test_snapshot_names_must_not_collide(self, tmp_path, capsys):
        # at dt 0.001 the frames at t = 0.026 and 0.028 both print as snapshot_0.03.csv
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
            assert _cli(out, *argv, "--evolution.dt", "0.001") == 0
        capsys.readouterr()
        assert _cli(out, "snapshot", "--times", "0.026,0.028", "--evolution.dt", "0.001") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "t=0.026" in err and "t=0.028" in err
        assert not list(out.glob("snapshot_*"))
        # the same time twice names one frame
        assert _cli(out, "snapshot", "--times", "0.026,0.026", "--evolution.dt", "0.001") == 0
        assert [p.name for p in out.glob("snapshot_*")] == ["snapshot_0.03.csv"]

    @pytest.mark.parametrize("name, edit, detail", [
        ("scaler.txt", lambda text: re.sub(r"max=.*", "max", text), "'max'"),
        ("scaler.txt", lambda text: re.sub(r"min=.*", "min=nan", text), "min=nan"),
        ("model.ckpt", lambda text: text.replace("hidden_dim=8", "hidden_dim=four"), "'hidden_dim=four'"),
        # one extra value on the second row of a section
        ("model.ckpt", lambda text: re.sub(r"(\[W_f\]\n.*\n.*)", r"\1 0", text, count=1), "[W_f]"),
    ], ids=[
        "scaler-line-without-value", "scaler-bounds-not-finite", "checkpoint-header", "checkpoint-row-width",
    ])
    def test_bad_scaler_or_checkpoint_names_the_file(
        self, predicted_run, tmp_path, capsys, name, edit, detail
    ):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        path = out / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert _cli(out, "predict") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and str(path) in err and detail in err

    def test_config_path_naming_a_directory(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path), "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, stage", [
        ("frames.csv", "simulate"), ("frames.csv", "table"), ("frames.csv", "export-dataset"),
        ("frames.csv", "train"), ("scaler.txt", "export-dataset"), ("scaler.txt", "train"),
        ("model.ckpt", "train"), ("model.ckpt", "predict"), ("pred_onestep.csv", "predict"),
        ("pred_onestep.csv", "compare"), ("report.csv", "compare"),
    ])
    def test_artifact_that_is_a_directory_names_the_path(self, predicted_run, tmp_path, capsys, name, stage):
        # the stage reads the artifact, or replaces it with what it wrote
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        path = out / name
        if path.exists():
            path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert _cli(out, stage) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("INFO ")]
        assert len(errors) == 1 and errors[0].startswith("error: config:") and str(path) in errors[0]

    def test_compare_into_a_directory_prints_only_its_error(self, predicted_run, tmp_path):
        # in a child process, where the clamped-values INFO line reaches stderr
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        argv = [sys.executable, "-m", "qwave.cli", *FAST, "--io.output_dir", str(out), "compare"]
        done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True)
        assert done.returncode == 0
        assert "negative predicted values to 0 for metrics" in done.stderr  # this run clamps
        path = out / "report.csv"
        path.unlink()
        path.mkdir()
        failed = subprocess.run(argv, env=_child_env(), capture_output=True, text=True)
        assert failed.returncode == 1
        assert failed.stderr.splitlines() == [f"error: config: {path}: Is a directory"]

    def test_output_dir_naming_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert _cli(path, "simulate") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "io.output_dir" in err and str(path) in err
        assert len(err.splitlines()) == 1


# a tiny chain that runs end to end; the property test below overrides up to
# two of its float keys with any finite float
_CHAIN_FLAGS = st.fixed_dictionaries({
    "grid.n_points": st.integers(3, 8),
    "evolution.n_steps": st.integers(1, 12),
    "dataset.lookback": st.integers(1, 4),
    "training.epochs": st.just(1),
    "training.hidden_dim": st.integers(1, 2),
    "evolution.normalization_mode": st.sampled_from(NORMALIZATION_MODES),
    "grid.a": st.floats(-8.0, 0.0),
    "grid.b": st.floats(0.1, 8.0),
    "evolution.dt": st.floats(1e-3, 1.0),
    "training.lr": st.floats(0.0, 0.1),
    "training.clip": st.floats(1e-3, 10.0),
})
_CHAIN_OVERRIDES = st.dictionaries(
    st.sampled_from(["grid.a", "grid.b", "evolution.dt", "training.lr", "training.clip"]),
    _FLOATS,
    max_size=2,
)
_PINNED = {
    "grid.n_points": 8, "evolution.n_steps": 4, "dataset.lookback": 2, "training.epochs": 1,
    "training.hidden_dim": 1, "evolution.normalization_mode": "ell2", "grid.a": -5.0,
    "grid.b": 5.0, "evolution.dt": 0.05, "training.lr": 2e-3, "training.clip": 1.0,
}
_CHAIN = [
    ["simulate"], ["table", "--times", "0", "--indices", "0,1,2"], ["export-dataset"], ["train"],
    ["predict", "--mode", "one-step"], ["predict", "--mode", "rollout"], ["compare"],
]


class TestExitContract:
    @settings(max_examples=300)
    @given(flags=_CHAIN_FLAGS, overrides=_CHAIN_OVERRIDES)
    # dx^2 overflows; dx^2 underflows; dx^2 is subnormal; a^2 overflows
    @example(flags=_PINNED, overrides={"grid.a": -1e200, "grid.b": 1e200})
    @example(flags=_PINNED, overrides={"grid.a": -1e-200, "grid.b": 1e-200})
    @example(flags=_PINNED, overrides={"grid.a": -1e-155, "grid.b": 1e-155})
    @example(flags={**_PINNED, "grid.n_points": 1000}, overrides={"grid.a": -1e155, "grid.b": 1e155})
    # the packet misses the grid; max|lam dt| is 1.3e16, then infinite (numpy
    # warned of the overflow); train's final update leaves weights that
    # overflow the forward pass, so train exits 2 and saves no checkpoint
    @example(flags=_PINNED, overrides={"grid.a": 20.0, "grid.b": 30.0})
    @example(flags=_PINNED, overrides={"evolution.dt": 1e15})
    @example(flags=_PINNED, overrides={"evolution.dt": 1.7976931348623157e308})
    @example(flags={**_PINNED, "grid.n_points": 4}, overrides={"training.lr": 1.7976931348623157e308})
    # sizes no machine holds, refused at a first allocation beyond any address
    # space: make_grid's first array is 4 PB, the times 8 PB and the LSTM's
    # parameters 3.2e17 bytes.  Then counts past 2**63 - 1 and a negative seed
    @example(flags={**_PINNED, "grid.n_points": 10**15}, overrides={})
    @example(flags={**_PINNED, "evolution.n_steps": 10**15}, overrides={})
    @example(flags={**_PINNED, "training.hidden_dim": 10**8}, overrides={})
    @example(flags={**_PINNED, "training.hidden_dim": 10**30}, overrides={})
    @example(flags={**_PINNED, "grid.n_points": 10**400}, overrides={})
    @example(flags={**_PINNED, "training.rng_seed": -1}, overrides={})
    def test_each_stage_exits_0_or_with_one_error_line(self, flags, overrides):
        argv = [arg for key, value in {**flags, **overrides}.items() for arg in (f"--{key}", str(value))]
        with tempfile.TemporaryDirectory() as out:
            for stage in _CHAIN:
                err = io.StringIO()
                with (
                    contextlib.redirect_stderr(err),
                    contextlib.redirect_stdout(io.StringIO()),
                    warnings.catch_warnings(record=True) as caught,
                ):
                    warnings.simplefilter("always")
                    code = cli.main([*stage, *argv, "--io.output_dir", out])
                if code == 0:
                    continue
                # the interpreter prints every warning to stderr as well
                lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
                assert code in (1, 2, 3), (stage, code, lines)
                assert len(lines) == 1, (stage, lines)
                prefix = {1: "error: config:", 2: "error: numerical:", 3: "error: missing-artifact:"}
                assert lines[0].startswith(prefix[code]), (stage, lines)
                break

    def test_train_saves_no_weights_its_final_update_overflows(self, tmp_path, capsys):
        flags = {**_PINNED, "grid.n_points": 4, "training.lr": 1.7976931348623157e308}
        argv = [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
        for stage in ("simulate", "export-dataset"):
            assert cli.main([stage, *argv, "--io.output_dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["train", *argv, "--io.output_dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "after the final update" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "loss.csv").exists()


class TestDashValues:
    """A flag's value may start with '-' without being a plain negative number."""

    @pytest.mark.parametrize("times", ["-1,0.5", "-1e0", "-inf"])
    def test_times_reach_the_stage(self, tmp_path, capsys, times):
        assert _cli(tmp_path / "out", "table", "--times", times) == 1
        assert "no recorded frame within dt/2" in capsys.readouterr().err

    @pytest.mark.parametrize("a, plain", [("-5e0", "-5"), ("-4.5e0", "-4.5")])
    @pytest.mark.parametrize("before_command", [True, False])
    def test_grid_a_value(self, tmp_path, a, plain, before_command):
        argv = ["--grid.a", a, "simulate"] if before_command else ["simulate", "--grid.a", a]
        assert _cli(tmp_path / "e", *argv) == 0
        assert _cli(tmp_path / "plain", "simulate", "--grid.a", plain) == 0
        assert (tmp_path / "e" / "frames.csv").read_bytes() == (tmp_path / "plain" / "frames.csv").read_bytes()

    def test_a_flag_is_not_taken_for_a_value(self, tmp_path, capsys):
        assert _cli(tmp_path / "out", "table", "--times", "--indices", "0") == 1
        assert "--times: expected one argument" in capsys.readouterr().err


class TestDeterminism:
    def test_small_pipeline_bitwise(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            _cli(out, "simulate")
            _cli(out, "export-dataset")
            _cli(out, "train")
            _cli(out, "predict")
            _cli(out, "compare")
            outputs.append({
                f: (out / f).read_bytes()
                for f in ("frames.csv", "scaler.txt", "model.ckpt", "report.csv")
            })
        assert outputs[0] == outputs[1]

    def test_frames_bitwise_across_blas_threads(self, tmp_path):
        # LAPACK's eigh and the step loop's products are on the path; a
        # second OpenBLAS thread must not move a bit of the frames while
        # every eigenblock has fewer than about 500 rows.  At N = 400, a = -5
        # folds into two blocks of 200 rows and a = -6 is one block of 400.
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        for grid_a in ("-5", "-6"):
            frames = []
            for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
                out = tmp_path / grid_a / name
                code = (
                    "from qwave.cli import main; main(['simulate', '--grid.n_points', '400', "
                    f"'--grid.a', {grid_a!r}, '--io.output_dir', {str(out)!r}])"
                )
                subprocess.run([sys.executable, "-c", code], env={**env, **threads}, check=True)
                frames.append((out / "frames.csv").read_bytes())
            assert frames[0] == frames[1], f"grid.a {grid_a}"


class TestPredCsv:
    """Prediction files go through the frame-table codec of frames.csv."""

    def test_round_trip(self, tmp_path):
        preds = np.random.default_rng(20).uniform(size=(4, 6))
        times = np.array([1.0, 1.5, 2.0, 2.5])
        path = tmp_path / "pred.csv"
        ev.write_frames_csv(times, preds, path)
        t_back, p_back = ev.read_frames_csv(path)
        assert np.array_equal(t_back, times)
        assert np.array_equal(p_back, preds)

    def test_width_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (["simulate"], ["export-dataset"], ["train"], ["predict"]):
            assert _cli(out, *argv) == 0
        path = out / "pred_onestep.csv"
        times, preds = ev.read_frames_csv(path)
        ev.write_frames_csv(times, preds[:, :3], path)
        capsys.readouterr()
        for argv in (["compare"], ["snapshot", "--times", "1.5"]):
            assert _cli(out, *argv) == 1
            err = capsys.readouterr().err
            assert str(path) in err and "3 columns, expected 40" in err
