import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwave import cli
from qwave import surrogate as sg
from qwave.artifacts import atomic_text, read_fields


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


# a key=value file's fields: each key's type, and a value of it that prints as
# a str, stays one line and survives the strip
_KEYS = st.from_regex(r"[a-z][a-z0-9_.]{0,8}", fullmatch=True)
_ONE_LINE = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))).map(str.strip)
_TYPED = st.one_of(
    st.tuples(st.just(int), st.integers()),
    st.tuples(st.just(float), st.floats(allow_nan=False)),
    st.tuples(st.just(str), _ONE_LINE),
)
_FIELDS = st.dictionaries(_KEYS, _TYPED, max_size=6)
# lines that read_fields skips
_SKIPPED = st.sampled_from(["", "   ", "\t", "#", "# a comment", "  #key=1", "#=#"])


@st.composite
def _padded(draw):
    """(types, values, lines): the fields as key=value lines, spaced and padded
    with skipped lines, some ending in a newline as a text file yields them."""
    fields = draw(_FIELDS)
    lines = []
    for key, (cast, value) in fields.items():
        lines += draw(st.lists(_SKIPPED, max_size=2))
        text = repr(value) if cast is float else str(value)
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{pad}{key}{pad}={pad}{text}{pad}")
    lines += draw(st.lists(_SKIPPED, max_size=2))
    lines = [line + draw(st.sampled_from(["", "\n"])) for line in lines]
    return {k: cast for k, (cast, _) in fields.items()}, {k: v for k, (_, v) in fields.items()}, lines


class TestReadFields:
    @given(_padded())
    def test_reads_the_fields_back(self, padded):
        types, values, lines = padded
        assert read_fields(lines, "f.txt", types) == values

    @given(_padded(), st.sampled_from(["no-equals", "unknown", "repeat", "unparseable"]), st.data())
    def test_refuses_a_fault_naming_its_line(self, padded, fault, data):
        types, values, lines = padded
        if fault == "repeat" and not values:
            fault = "unknown"
        at = data.draw(st.integers(0, len(lines)))
        if fault == "no-equals":
            bad, detail = "just some words", "expected key=value, got 'just some words'"
        elif fault == "unknown":
            bad, detail = "KEY=1", "unknown key 'KEY'"  # upper case: no drawn key
        elif fault == "repeat":
            key = data.draw(st.sampled_from(sorted(values)))
            bad, detail = f"{key}={values[key]!r}", f"key {key!r} repeats"
            first = next(k for k, line in enumerate(lines) if line.partition("=")[0].strip() == key)
            at = data.draw(st.integers(first + 1, len(lines)))
        else:
            types = {**types, "N": int}  # upper case: no drawn key
            bad, detail = "N = 1.5", "cannot parse N='1.5' as int"
        lines.insert(at, bad + data.draw(st.sampled_from(["", "\n"])))
        with pytest.raises(ValueError) as caught:
            read_fields(lines, "f.txt", types)
        assert str(caught.value) == f"f.txt:{at + 1}: {detail}"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**70))
    def test_checkpoint_header_reads_back(self, tmp_path, input_dim, hidden_dim, seed):
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(sg.init_model(input_dim, hidden_dim, seed), path)
        back = sg.load_checkpoint(path)
        assert (back.input_dim, back.hidden_dim, back.seed) == (input_dim, hidden_dim, seed)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_SKIPPED, max_size=4), st.integers(0, 4))
    def test_checkpoint_fault_counts_lines_from_the_file_start(self, tmp_path, skipped, at):
        # at 0 to 4: before, among or just after the four header lines
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(sg.init_model(2, 1, 0), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[at:at] = [line + "\n" for line in [*skipped, "seed=x"]]
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as caught:
            sg.load_checkpoint(path)
        assert str(caught.value).startswith(f"{path}:{at + len(skipped) + 1}: ")
