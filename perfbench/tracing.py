"""Spans around the calls into each layer, installed from outside the package.

A layer is a package module.  `Tracer.install` replaces every public function
of a layer module, in every package module that bound it by name, with a
wrapper that records a span (name, start, end, parent span, job id); it also
wraps four methods.  `uninstall` puts the originals back.  Spans stay in
memory until `write`.

A span's self time is its duration minus that of its direct children.  The
wrappers of matmul, moore_complex, invariant_factors and smith_normal_form
then compute counts from the call's arguments and result (matrix shapes,
nonzeros); that work is recorded as a `trace.count` span under the caller, so
it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "groupoids", "chains", "matrix", "abelian", "uct", "mv")
PACKAGE_MODULES = LAYERS + ("sft", "__init__")

# cli.main is the cli layer's one entry; its argparse, JSON load and rendering
# helpers are charged to it.  groupoids.face runs once per face of every nerve
# cell, so a span per call would swamp moore_complex; it is charged there.
ONLY = {"cli": {"main"}}
SKIP = {"groupoids.face"}
METHODS = {
    "matrix.matmul": ("matrix", "IntegerMatrix", "matmul"),
    "chains.validate": ("chains", "FreeChainComplex", "validate"),
    "groupoids.validate": ("groupoids", "FiniteGroupoid", "validate"),
    "mv.connecting": ("mv", "MvChainSes", "connecting"),
}


def nnz(m) -> int:
    return sum(m.cols - m.row(i).count(0) for i in range(m.rows))


def _count_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["matrix.matmul.madds"] += a.rows * a.cols * b.cols


def _count_moore(counts, args, result):
    counts["groupoids.basis_size"] += sum(result.dims)
    for b in result.boundaries:
        counts["groupoids.boundary_cells"] += b.rows * b.cols
        counts["groupoids.boundary_nnz"] += nnz(b)


def _count_invariant_factors(counts, args, result):
    counts["matrix.invariant_factors.nnz"] += nnz(args[0])


def _count_smith(counts, args, result):
    counts["matrix.smith_normal_form.cells"] += args[0].rows * args[0].cols


COUNTERS = {
    "matrix.matmul": _count_matmul,
    "groupoids.moore_complex": _count_moore,
    "matrix.invariant_factors": _count_invariant_factors,
    "matrix.smith_normal_form": _count_smith,
}


class Tracer:
    def __init__(self, package: str):
        self.modules = {
            name: importlib.import_module(f"{package}.{name}" if name != "__init__" else package)
            for name in PACKAGE_MODULES
        }
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def targets(self) -> dict[str, object]:
        """Span name -> original function, for every public layer function."""
        out = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                name = f"{layer}.{fname}"
                if (
                    fn.__module__ == module.__name__
                    and not fname.startswith("_")
                    and fname in ONLY.get(layer, {fname})
                    and name not in SKIP
                ):
                    out[name] = fn
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, fn in self.targets().items():
            wrapper = self._wrap(name, fn)
            for module in self.modules.values():
                if getattr(module, fn.__name__, None) is fn:
                    self._patch(module, fn.__name__, wrapper)
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self.counts, args, result)
                spans.append(("trace.count", end, clock(), parent, self.job))
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def _self_s(self, first: int = 0) -> list[tuple[tuple, float]]:
        """Each span of spans[first:] with its self time."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        return [(span, span[2] - span[1] - inner) for span, inner in zip(spans, child)]

    def self_times(self, first: int = 0) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name, over spans[first:]."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, seconds in self._self_s(first):
            self_s[span[0]] += seconds
            calls[span[0]] += 1
        return dict(self_s), calls

    def callers(self, name: str) -> dict[str, float]:
        """Self time of the spans called `name`, split by the caller's span name."""
        out: dict[str, float] = defaultdict(float)
        for span, seconds in self._self_s():
            if span[0] == name:
                out[self.spans[span[3]][0] if span[3] >= 0 else "-"] += seconds
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end (s since the first), parent, job."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7),
                                     parent, job]) + "\n")
