"""The package's import surface and the README's code."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qwave
from qwave import errors
from qwave.config import RunConfig, config_keys, key_type

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


# the variables OpenBLAS reads its thread count from, in its order
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_stdout(code: str, **threads: str) -> list[str]:
    """The lines a fresh interpreter prints running code, with this qwave first on its
    path and, of the thread variables, only those given."""
    src = os.path.dirname(os.path.dirname(qwave.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(threads, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def _thread_variables_after_cli_import(**threads: str) -> dict[str, str | None]:
    code = f"import os, qwave.cli; print({{k: os.environ.get(k) for k in {THREAD_VARIABLES!r}}})"
    (line,) = _child_stdout(code, **threads)
    return ast.literal_eval(line)


def test_import_loads_no_submodule():
    code = (
        "import sys, qwave; print(qwave.__version__); "
        "print(sorted(m for m in sys.modules if m.startswith('qwave.')))"
    )
    assert _child_stdout(code) == [qwave.__version__, "[]"]


def test_cli_import_loads_only_the_simulate_chain():
    # every CLI stage pays for this import in a fresh process; the dataset,
    # surrogate and compare modules load inside the stages that use them
    code = "import sys, qwave.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'qwave'))"
    (line,) = _child_stdout(code)
    assert ast.literal_eval(line) == [
        "qwave", "qwave.artifacts", "qwave.cli", "qwave.config",
        "qwave.discretize", "qwave.errors", "qwave.evolve", "qwave.spectral",
    ]


def test_cli_import_runs_openblas_on_one_thread():
    assert _thread_variables_after_cli_import() == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None,
    }


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_cli_import_starts_no_blas_thread():
    (line,) = _child_stdout("import os, qwave.cli; print(len(os.listdir('/proc/self/task')))")
    assert line == "1"


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_cli_import_keeps_a_thread_count_the_user_set(name):
    expected = dict.fromkeys(THREAD_VARIABLES, None) | {name: "2"}
    assert _thread_variables_after_cli_import(**{name: "2"}) == expected


def test_cli_import_after_numpy_leaves_the_environment_alone():
    # numpy has loaded OpenBLAS already, so a variable set now would only
    # reach the caller's own child processes
    code = "import os; before = dict(os.environ); import numpy, qwave.cli; print(dict(os.environ) == before)"
    assert _child_stdout(code) == ["True"]


def test_cli_import_loads_no_logging():
    assert _child_stdout("import sys, qwave.cli; print('logging' in sys.modules)") == ["False"]


def test_readme_quick_start_runs(capsys):
    block = re.search(r"A quick start in code:\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    shape, drift = capsys.readouterr().out.splitlines()
    assert shape == "(101, 200)"
    assert 0.0 <= float(drift) <= 1e-10


def test_readme_config_table_matches_the_schema():
    section = README.read_text().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys, defaults = [], []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0] == "key" or set(cells[0]) <= {"-"}:
            continue
        # one row may hold several keys, as in `grid.a / grid.b | -5.0 / 5.0`
        row_keys, row_defaults = cells[0].split(" / "), cells[1].split(" / ")
        assert len(row_keys) == len(row_defaults), line
        keys += row_keys
        defaults += row_defaults
    assert tuple(keys) == config_keys()
    for key, text in zip(keys, defaults):
        assert key_type(key)(text) == getattr(RunConfig(), key.replace(".", "_", 1)), key


def test_a_failing_property_example_leaves_the_run_going(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; with
    # pytest's warnings as errors, that warning once ended the whole run in
    # INTERNALERROR before any later test ran
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    run = subprocess.run([*argv, "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_every_private_helper_is_referenced():
    # a module-level _name that no other statement of the package reads is dead
    # code, kept only by its own tests
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "qwave").glob("*.py"))]
    statements = [node for tree in trees for node in tree.body]
    read = [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for node in statements
    ]
    helpers = [
        node for node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert helpers
    dead = [
        helper.name for helper in helpers
        if not any(helper.name in names for node, names in zip(statements, read) if node is not helper)
    ]
    assert dead == []


def test_only_artifacts_splits_key_value_lines():
    # the config file, scaler.txt and the model.ckpt header share one reader,
    # artifacts.read_fields, and so one grammar and one set of refusals
    splitters = {
        path.name
        for path in (ROOT / "src" / "qwave").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "partition"
        and [getattr(arg, "value", None) for arg in node.args] == ["="]
    }
    assert splitters == {"artifacts.py"}


def test_error_types_are_flat():
    # a type exists only where a caller tells it apart or reads its data (as
    # FrameCountError.rows); one that only narrows another is caught as its parent
    classes = [node for node in ast.parse((ROOT / "src" / "qwave" / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    names = {node.name for node in classes}
    assert {
        node.name: base.id for node in classes for base in node.bases
        if isinstance(base, ast.Name) and base.id in names
    } == {}


def test_every_error_type_is_told_apart_or_read():
    # the rule above, against builtin bases too: a type that every handler
    # catches beside a builtin it derives from is caught as that builtin
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src" / "qwave").glob("*.py")}
    caught = [
        {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
         if isinstance(n, (ast.Name, ast.Attribute))}
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    read = {
        node.attr for name, tree in trees.items() if name != "errors.py" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = [node for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)]
    assert classes
    idle = []
    for node in classes:
        builtin_bases = {c.__name__ for c in getattr(errors, node.name).__mro__[1:] if c.__module__ == "builtins"}
        told_apart = any(node.name in names and not names & builtin_bases for names in caught)
        sets = {
            target.attr for n in ast.walk(node) if isinstance(n, ast.Assign) for target in n.targets
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self"
        }
        if not (told_apart or sets & read):
            idle.append(node.name)
    assert idle == []
