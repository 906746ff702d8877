import os

import pytest

from qwave import cli
from qwave.artifacts import atomic_text


class TestAtomicText:
    def test_writes_the_target(self, tmp_path):
        path = tmp_path / "out.csv"
        with atomic_text(path) as fh:
            fh.write("a,b\n")
        assert path.read_text() == "a,b\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_writer_raising_mid_file_leaves_nothing(self, tmp_path, error):
        path = tmp_path / "out.csv"
        with pytest.raises(error):
            with atomic_text(path) as fh:
                fh.write("t,x_0\n0,")
                raise error("killed mid-row")
        assert os.listdir(tmp_path) == []

    def test_writer_raising_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_text(path) as fh:
                fh.write("new, partial")
                raise RuntimeError("killed mid-row")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


def test_every_cli_artifact_is_replaced_into_place(tmp_path, monkeypatch):
    # each file a stage leaves in the output directory arrived by os.replace
    replaced = []
    rename = os.replace

    def spy(src, dst):
        replaced.append(os.path.basename(dst))
        rename(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    out = tmp_path / "out"
    fast = ["--grid.n_points", "24", "--evolution.n_steps", "30", "--training.epochs", "1",
            "--training.hidden_dim", "4", "--io.output_dir", str(out)]
    for argv in (["simulate", "--dump-eigen"], ["table"], ["export-dataset"], ["train"],
                 ["predict", "--mode", "one-step"], ["predict", "--mode", "rollout"], ["compare"],
                 ["snapshot", "--times", "1.4"]):
        assert cli.main([*argv, *fast]) == 0, argv
    assert sorted(replaced) == sorted(os.listdir(out))
    assert len(replaced) == 11
