import ast
import contextlib
import hashlib
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
    NORMALIZATION_MODES,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
)

# small, fast settings exercising every pipeline stage
FAST = [
    "--grid.n_points", "40",
    "--evolution.n_steps", "30",
    "--training.epochs", "3",
    "--training.hidden_dim", "8",
]

# the variables OpenBLAS reads its thread count from, in its order
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
    io_output_dir=st.text(min_size=1),
)


class TestConfigFile:
    def test_parse_serialize_round_trip(self):
        cfg = RunConfig(grid_a=-3.5, training_lr=2e-3, io_output_dir="results")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_round_trip(self):
        assert parse_config(serialize_config(RunConfig())) == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^<config>:1: unknown key 'grid.zz'$"):
            parse_config("grid.zz=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config("grid.n_points=many\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="^<config>:2: key 'grid.a' repeats$"):
            parse_config("grid.a=1\ngrid.a=2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("grid.a\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\ngrid.a=-2.5\n")
        assert cfg.grid_a == -2.5

    @given(_CONFIGS)
    @example(RunConfig(io_output_dir=" out"))
    @example(RunConfig(io_output_dir="out "))
    @example(RunConfig(io_output_dir="a\nb"))
    @example(RunConfig(io_output_dir="a\x85b"))
    def test_parse_inverts_serialize(self, cfg):
        # of the drawn fields only the output dir is refused for the text it holds
        try:
            validate_config(RunConfig(io_output_dir=cfg.io_output_dir))
        except ValueError as exc:
            assert str(exc).startswith("io.output_dir must be")
        else:
            assert parse_config(serialize_config(cfg)) == cfg

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "grid.n_points=50\ntraining.lr=0.01\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain) != RunConfig()

    def test_bad_flag_value_names_the_flag(self, capsys):
        assert cli.main(["--training.lr", "tight", "train"]) == 1
        assert "--training.lr" in capsys.readouterr().err

    def test_clip_is_refused_as_flag_and_key(self, tmp_path, capsys):
        # training has no clip; naming one is an error, not a silent no-op
        assert cli.main(["train", "--training.clip", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config:") and "--training.clip" in line
        path = tmp_path / "run.cfg"
        path.write_text("training.clip=1\n")
        assert cli.main(["--config", str(path), "train"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config:") and "'training.clip'" in line

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["--config", str(path), "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and str(path) in err and "UTF-8" in err

    def test_normalization_mode_refusal_names_every_mode(self):
        message = "^evolution.normalization_mode must be 'ell2' or 'dx_weighted', got 'l1'$"
        with pytest.raises(ValueError, match=message):
            validate_config(RunConfig(evolution_normalization_mode="l1"))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="not found"):
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
            {"io.output_dir": ""},
            {"io.output_dir": " out"},
            {"io.output_dir": "a\nb"},
            {"grid.a": -np.inf},
            {"grid.a": np.nan},
            {"grid.b": np.inf},
            {"evolution.dt": np.inf},
            {"training.lr": np.inf},
            {"training.lr": np.nan},
            {"grid.n_points": 2**63},
            {"grid.n_points": 10**400},
            {"evolution.n_steps": 2**63},
            {"dataset.lookback": 2**63},
            {"training.epochs": 2**63},
            {"training.hidden_dim": 10**30},
            {"training.rng_seed": -1},
        ):
            (key,) = bad
            with pytest.raises(ValueError, match=re.escape(key)):
                validate_config(apply_overrides(RunConfig(), bad))
        validate_config(apply_overrides(RunConfig(), {"training.epochs": 2**63 - 1}))

    def test_lookback_versus_frames(self, tmp_path, capsys):
        # 4 frames and lookback 4 give no pair: the stages that window the
        # frames refuse, naming the keys; simulate and table do not window
        argv = ["--evolution.n_steps", "3", "--dataset.lookback", "4", "--io.output_dir", str(tmp_path)]
        assert cli.main(["simulate", *argv]) == 0
        assert cli.main(["table", "--times", "0,0.1", *argv]) == 0
        capsys.readouterr()
        for stage in ("export-dataset", "train", "predict", "compare"):
            assert cli.main([stage, *argv]) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: config:") and "of the 0 pairs" in line, stage
            for key in ("dataset.split_fraction", "evolution.n_steps", "dataset.lookback"):
                assert key in line, (stage, key)


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

    def test_norm_drift_aborts_simulate(self, tmp_path, capsys, monkeypatch):
        # no step can meet a negative threshold, so the first one stepped fails
        monkeypatch.setattr(ev, "_DRIFT_ABORT", -1.0)
        out = tmp_path / "out"
        assert _cli(out, "simulate") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: numerical: norm drifted by") and "at step 1 " in line
        assert not os.path.exists(out / "frames.csv") and not os.path.exists(out / "conservation.csv")

    @pytest.mark.parametrize("argv, failing, rows", [([], 0, "0:20"), (["--dump-eigen"], 1, "20:40")])
    def test_block_that_misses_its_residual_bound(self, tmp_path, capsys, monkeypatch, argv, failing, rows):
        # the run solves the even block; --dump-eigen solves the odd one, and
        # fails on it before any file is written
        solves = []
        eigh = np.linalg.eigh

        def perturbed(t):
            lam, v = eigh(t)
            if len(solves) == failing:
                v[:, 3] += 1e-6
            solves.append(t.shape)
            return lam, v

        monkeypatch.setattr(sp.np.linalg, "eigh", perturbed)
        out = tmp_path / "out"
        assert _cli(out, "simulate", *argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: numerical: eigenvector 3 of the block of rows {rows} (eigenvalue ")
        assert solves == [(20, 20)] * (failing + 1) and not os.path.exists(out / "frames.csv")

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

    @pytest.mark.parametrize("argv", [["table", "--times", "1e308"], ["snapshot", "--times", "-1e308"]])
    def test_time_whose_step_is_past_the_float_range(self, predicted_run, capsys, argv):
        # t/dt overflows; the time is refused by the dt/2 rule, with no numpy warning
        capsys.readouterr()
        assert _cli(predicted_run, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: no recorded frame within dt/2") and len(err.splitlines()) == 1

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

    def test_snapshot_writes_each_file_once(self, predicted_run, tmp_path, capsys):
        # 1.4 and 1.41 are both frame 28; files come in the order the times first name them
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        capsys.readouterr()
        assert _cli(out, "snapshot", "--times", "1.4,1.41,1.3,1.4") == 0
        assert capsys.readouterr().out.splitlines() == [
            f"snapshot: wrote {out / name}" for name in ("snapshot_1.40.csv", "snapshot_1.30.csv")
        ]
        written = {name: (out / name).read_bytes() for name in ("snapshot_1.40.csv", "snapshot_1.30.csv")}
        for name in written:
            (out / name).unlink()
        assert _cli(out, "snapshot", "--times", "1.3") == 0 and _cli(out, "snapshot", "--times", "1.4") == 0
        assert written == {name: (out / name).read_bytes() for name in written}

    # FAST's n_fit is 25: export-dataset and train read frames 0-24, predict
    # frames 21-30, and frame 27 is prediction row 2
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, row, argv", [
        ("frames.csv", 3, ["export-dataset"]),
        ("frames.csv", 3, ["train"]),
        ("frames.csv", 27, ["predict"]),
        ("frames.csv", 27, ["compare"]),
        ("frames.csv", 27, ["snapshot", "--times", "1.35"]),
        ("frames.csv", 27, ["table", "--times", "1.35"]),
        ("pred_onestep.csv", 2, ["compare"]),
        ("pred_onestep.csv", 2, ["snapshot", "--times", "1.35"]),
    ], ids=[
        "frames-export-dataset", "frames-train", "frames-predict", "frames-compare", "frames-snapshot",
        "frames-table", "pred-compare", "pred-snapshot",
    ])
    def test_non_finite_frame_value_is_refused(self, predicted_run, tmp_path, capsys, name, row, argv, value):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        lines = (out / name).read_text().splitlines(keepends=True)
        fields = lines[1 + row].split(",")
        fields[5] = value
        lines[1 + row] = ",".join(fields)
        (out / name).write_text("".join(lines))
        capsys.readouterr()
        assert _cli(out, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {out / name} has a non-finite value in frame row {row}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name, edit, detail", [
        ("scaler.txt", lambda text: re.sub(r"max=.*", "max", text), "'max'"),
        ("scaler.txt", lambda text: re.sub(r"min=.*", "min=nan", text), "min=nan"),
        ("model.ckpt", lambda text: text.replace("hidden_dim=8", "hidden_dim=four"),
         ":2: cannot parse hidden_dim='four' as int"),
        # one extra value on the second row of a section
        ("model.ckpt", lambda text: re.sub(r"(\[W_f\]\n.*\n.*)", r"\1 0", text, count=1), "[W_f]"),
        ("scaler.txt", lambda text: text + "min=0.5\n", "key 'min' repeats"),
        ("model.ckpt", lambda text: re.sub(r"(seed=\d+\n)", r"\1seed=9\n", text), ":4: key 'seed' repeats"),
        ("model.ckpt", lambda text: "foo=3\n" + text, ":1: unknown key 'foo'"),
        # train never saves a non-finite weight; 1e39 is past float32's range
        *(
            ("model.ckpt", lambda text, v=value: re.sub(r"(\[U_c\]\n)\S+", rf"\g<1>{v}", text), "[U_c]")
            for value in ("nan", "inf", "1e39")
        ),
        ("model.ckpt", lambda text: text.replace("dtype=float32", "dtype=float64"), "dtype=float64"),
        ("model.ckpt", lambda text: text.replace("dtype=float32\n", ""), "missing header fields ['dtype']"),
        # refused before the model is allocated, not as numpy's allocation error
        ("model.ckpt", lambda text: text.replace("hidden_dim=8", "hidden_dim=-1"), "hidden_dim=-1"),
        ("model.ckpt", lambda text: text.replace("input_dim=40", "input_dim=10000000000000"), "[W_out] has 40 rows"),
    ], ids=[
        "scaler-line-without-value", "scaler-bounds-not-finite", "checkpoint-header", "checkpoint-row-width",
        "scaler-repeated-key", "checkpoint-repeated-field", "checkpoint-unknown-field",
        "checkpoint-nan", "checkpoint-inf", "checkpoint-past-float32", "checkpoint-float64",
        "checkpoint-without-dtype", "checkpoint-negative-dim", "checkpoint-huge-dim",
    ])
    def test_bad_scaler_or_checkpoint_names_the_file(
        self, predicted_run, tmp_path, capsys, name, edit, detail
    ):
        out = tmp_path / "out"
        shutil.copytree(predicted_run, out)
        path = out / name
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        capsys.readouterr()
        for mode in ("one-step", "rollout"):
            assert _cli(out, "predict", "--mode", mode) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config:") and str(path) in err and detail in err
            assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("has_frames", [False, True], ids=["on-the-fly", "frames-csv"])
    def test_table_refuses_a_nan_time_on_both_paths(self, tmp_path, capsys, has_frames):
        out = tmp_path / "out"
        if has_frames:
            assert _cli(out, "simulate") == 0
        capsys.readouterr()
        assert _cli(out, "table", "--times", "nan,0", "--indices", "0,1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: config: times must be numbers, got [nan, 0.0]"]

    @pytest.mark.parametrize("has_frames", [False, True], ids=["on-the-fly", "frames-csv"])
    def test_table_into_a_directory_prints_only_its_error(self, tmp_path, capsys, has_frames):
        out = tmp_path / "out"
        if has_frames:
            assert _cli(out, "simulate") == 0
        path = out / "table.txt"
        path.mkdir(parents=True)
        capsys.readouterr()
        assert _cli(out, "table") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: config: {path}: Is a directory"]

    def test_table_under_a_regular_file_prints_only_its_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert _cli(taken / "out", "table") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: config: io.output_dir") and str(taken / "out") in line

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
})
_CHAIN_OVERRIDES = st.dictionaries(
    st.sampled_from(["grid.a", "grid.b", "evolution.dt", "training.lr"]),
    _FLOATS,
    max_size=2,
)
_PINNED = {
    "grid.n_points": 8, "evolution.n_steps": 4, "dataset.lookback": 2, "training.epochs": 1,
    "training.hidden_dim": 1, "evolution.normalization_mode": "ell2", "grid.a": -5.0,
    "grid.b": 5.0, "evolution.dt": 0.05, "training.lr": 2e-3,
}
_CHAIN = [
    ["simulate"], ["table", "--times", "0", "--indices", "0,1,2"], ["export-dataset"], ["train"],
    ["predict", "--mode", "one-step"], ["predict", "--mode", "rollout"], ["compare"],
    ["snapshot", "--times", "0.2"],
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
    # every time over the least subnormal dt is past the float range in steps
    @example(flags=_PINNED, overrides={"evolution.dt": 5e-324})
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

    def test_pinned_chain_exits_0(self, tmp_path):
        # the property test accepts a chain that stops at once; its base must run
        argv = [arg for key, value in _PINNED.items() for arg in (f"--{key}", str(value))]
        for stage in _CHAIN:
            assert cli.main([*stage, *argv, "--io.output_dir", str(tmp_path)]) == 0, stage

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


def _frames_digest(tmp_path, *argv, file="frames.csv") -> str:
    """SHA-256 of the file (default frames.csv) that `simulate` writes with argv."""
    out = tmp_path / "out"
    assert cli.main(["simulate", *argv, "--io.output_dir", str(out)]) == 0
    return hashlib.sha256((out / file).read_bytes()).hexdigest()


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

    @pytest.mark.parametrize(
        "n_points, digest",
        [
            ("200", "28b7902fc4841e6c7ffeb3829db3d9d85a6827744ddd25c47dc30bdaa2db8c0d"),
            ("201", "e2ccce90ae7c039c64e571e3e1792ccd5091414d2b6fe45ecec0e084f428e445"),
        ],
    )
    def test_asymmetric_grid_frames_pinned(self, tmp_path, n_points, digest):
        # an H that is not a palindrome is one eigenblock whose vectors are Q
        # up to column signs, so its frames are those of psi = Q c over the dense Q
        assert _frames_digest(tmp_path, "--grid.a", "-6", "--grid.n_points", n_points) == digest

    @pytest.mark.parametrize(
        "n_points, digest",
        [
            ("200", "f339bf40c0e77fe571e41fb11de233d7bc3eb10561aad36bb5f55d3d9888ae74"),
            ("201", "6b684d5c6e0e3e2ba65d4e6262d828828e3f4f30a9368a7ebffbc6e36177f639"),
        ],
    )
    def test_symmetric_grid_frames_pinned(self, tmp_path, n_points, digest):
        # the default [-5, 5] folds: the packet is folded, steps in the even
        # block alone, and its amplitudes unfold
        assert _frames_digest(tmp_path, "--grid.n_points", n_points) == digest

    @pytest.mark.parametrize(
        "grid_a, n_points, digest",
        [
            ("-5", "200", "39a02b0f2abdff0ac6a477aef6898bc36408b762fdfbae42cba3145cb7836f22"),
            ("-5", "201", "fb3101fbb8cb8e2513c8a75343984c5789a62e6ca9f6629d62028a43a2cd3cce"),
            ("-6", "200", "5e72f1c01566630082847984bae79163cfe2151034a1edddeb752a69e55eb644"),
            ("-6", "201", "0d52f85732e2793dc261f11587a03a19db7ef0c200e376410c472ab8cf8309b2"),
        ],
    )
    def test_eigen_csv_pinned(self, tmp_path, grid_a, n_points, digest):
        # on [-5, 5] the run solves the even block alone and --dump-eigen the
        # odd one after it; lambda and Q keep every bit either way
        argv = ["--dump-eigen", "--grid.a", grid_a, "--grid.n_points", n_points]
        assert _frames_digest(tmp_path, *argv, file="eigen.csv") == digest

    @staticmethod
    def _frames_at(out, threads, *argv):
        """frames.csv of `simulate` in a child with OPENBLAS_NUM_THREADS=threads, or with
        no thread variable set when threads is None."""
        env = {k: v for k, v in _child_env().items() if k not in _THREAD_VARIABLES}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        code = f"from qwave.cli import main; main(['simulate', *{argv!r}, '--io.output_dir', {str(out)!r}])"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return (out / "frames.csv").read_bytes()

    def test_frames_bitwise_across_blas_threads(self, tmp_path):
        # LAPACK's eigh and the step loop's products are on the path; a
        # second OpenBLAS thread, which a user may set, must not move a bit of
        # the frames while every stepped eigenblock has fewer than about 500
        # rows.  At N = 400, a = -5 steps only the even block of 200 rows and
        # a = -6 the one block of 400.
        for grid_a in ("-5", "-6"):
            argv = ("--grid.n_points", "400", "--grid.a", grid_a)
            frames = [self._frames_at(tmp_path / grid_a / t, t, *argv) for t in ("1", "2")]
            assert frames[0] == frames[1], f"grid.a {grid_a}"

    @pytest.mark.parametrize("argv", [
        ("--grid.n_points", "1000"),  # the even block of 500 rows
        ("--grid.n_points", "520", "--grid.a", "-6"),  # one block of 520 rows
    ])
    def test_unset_thread_count_is_one_thread(self, tmp_path, argv):
        # past about 500 rows dsyevd splits its work by thread count; with no
        # variable set the CLI runs one thread, so the frames are those of
        # OPENBLAS_NUM_THREADS=1 whatever the machine's core count
        unset = self._frames_at(tmp_path / "unset", None, *argv)
        assert unset == self._frames_at(tmp_path / "one", "1", *argv)

    def test_surrogate_bitwise_across_blas_threads(self, tmp_path):
        # train and predict at the default sizes run float32 GEMMs; a second
        # OpenBLAS thread must not move a bit of the weights or predictions
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        base = tmp_path / "base"
        for stage in ("simulate", "export-dataset"):
            assert cli.main([stage, "--io.output_dir", str(base)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            shutil.copytree(base, out)
            stages = [["train", "--training.epochs", "3"], ["predict", "--mode", "one-step"],
                      ["predict", "--mode", "rollout"]]
            code = (
                "from qwave.cli import main\n"
                f"for stage in {stages!r}:\n"
                f"    assert main([*stage, '--io.output_dir', {str(out)!r}]) == 0, stage\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("model.ckpt", "pred_onestep.csv", "pred_rollout.csv")
            })
        assert outputs[0] == outputs[1]


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
