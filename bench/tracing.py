"""Spans around the public functions of qwave's modules, recorded from outside.

`Tracer.installed()` replaces every public function of the layer modules
with a wrapper that records one span per call: name, parent span, start
and end.  Names bound by `from .x import f` in other qwave modules are
replaced too, so calls between modules are seen.  The wrapper calls the
original with the same arguments, so traced results are the untraced
results; the benchmark still checks that bitwise.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# the modules that do measurable work; config, state and errors do not
LAYERS = ("cli", "discretize", "spectral", "evolve", "dataset", "surrogate", "compare")


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, capture: frozenset[str] = frozenset()):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self._stack: list[int] = []
        self._capture = capture
        self.results: dict[str, list] = defaultdict(list)
        self._marks: list[tuple[str, int]] = []  # (stage, index of its first span)

    def mark(self, stage: str) -> None:
        """Spans recorded from here on belong to stage."""
        self._marks.append((stage, len(self.spans)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = self.results[name] if name in self._capture else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function in every loaded qwave module; undo on exit."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qwave.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        patched = []
        for module in [m for n, m in sys.modules.items() if n == "qwave" or n.startswith("qwave.")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(module, attr, originals[obj])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def stats(self, lo: int = 0, hi: int | None = None) -> dict[str, FunctionStats]:
        """Calls, total and self time per function over spans[lo:hi].

        Self time is a span's duration minus the time its child spans cover.
        """
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, FunctionStats] = defaultdict(FunctionStats)
        for (name, _, start, end), covered in zip(self.spans[lo:hi], child_s[lo:hi]):
            s = out[name]
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - covered
        return out

    def stage_layers(self) -> dict[str, dict[str, float]]:
        """Self seconds per layer within each marked stage."""
        bounds = [i for _, i in self._marks[1:]] + [len(self.spans)]
        table = {}
        for (stage, lo), hi in zip(self._marks, bounds):
            by_layer: dict[str, float] = defaultdict(float)
            for name, s in self.stats(lo, hi).items():
                by_layer[name.split(".", 1)[0]] += s.self_s
            table[stage] = dict(by_layer)
        return table

    def child_total_s(self, parent_name: str, child_name: str) -> tuple[int, float]:
        """Calls and total time of child_name spans directly under parent_name spans."""
        calls, total = 0, 0.0
        for name, parent, start, end in self.spans:
            if name == child_name and parent is not None and self.spans[parent][0] == parent_name:
                calls += 1
                total += end - start
        return calls, total

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
        ]
