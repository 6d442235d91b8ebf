"""Span tracing of skewgentle from outside the package.

The tracer wraps every public module-level function of each layer module
and rebinds the wrapper at every ``skewgentle`` namespace that holds the
original (so ``skewgentle.algebra.skew_group_algebra`` and the copy
imported into ``skewgentle.equivariant`` both record).  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Spans are ``(name, start, end, parent, verdict)`` tuples kept in memory;
``parent`` is the index of the enclosing span or -1.  Time spent on the
tracer's own bookkeeping (table counting) is taken off the clock, so it
shows in neither the span nor its ancestors.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "surface", "presentations", "covering", "algebra", "equivariant", "linefield")

# Vector helpers and one-line cell accessors run inside inner loops (tens
# of thousands of calls per verdict at a few microseconds each); a wrapper
# there would cost more than the work it measures, and their time stays in
# the caller's self time.  ``TableAlgebra.mul`` is a method and is never
# wrapped.
HOT_HELPERS = frozenset(
    [f"algebra.{name}" for name in ("vec", "vadd", "vaxpy", "vscale", "vsub", "veq", "path_target")]
    + [
        f"surface.{name}"
        for name in ("head_ray", "tail_ray", "arc_side", "bseg_side", "chord_bseg_side", "passage_winding")
    ]
    + ["presentations.split_vertex_ids"]
)

# Constructors whose returned tables feed the table_* counters, with the
# attribute path from the return value to its ``TableAlgebra``.
TABLE_RETURNING = {
    "algebra.skew_group_algebra": None,
    "algebra.algebra_from_products": None,
    "algebra.corner_algebra": "algebra",
    "algebra.graded_path_algebra": "algebra",
    "algebra.reduced_path_algebra": "algebra",
}


def _public_functions():
    """(qualified name, function) for every function the tracers wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"skewgentle.{layer}"]
        for name, obj in vars(mod).items():
            qual = f"{layer}.{name}"
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or qual in HOT_HELPERS
            ):
                continue
            out.append((qual, obj))
    return out


def _rebind(replacement_by_id: dict[int, object]) -> list[tuple[object, str, object]]:
    """Swap functions at every skewgentle namespace; returns undo records."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "skewgentle" and not modname.startswith("skewgentle."):
            continue
        for name, obj in list(vars(mod).items()):
            new = replacement_by_id.get(id(obj)) if inspect.isfunction(obj) else None
            if new is not None:
                undo.append((mod, name, obj))
                setattr(mod, name, new)
    return undo


def _restore(undo) -> None:
    for mod, name, obj in undo:
        setattr(mod, name, obj)


class Tracer:
    """Records spans around every public layer function while installed."""

    def __init__(self):
        self.spans: list = []
        self.verdict = -1
        self.tables = [0, 0]  # product-table cells, nonzero cells
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of measurement work off the span clock."""
        self._paused += seconds

    def install(self) -> None:
        wrappers = {}
        for qual, fn in _public_functions():
            if qual == "cli.main":
                wrappers[id(fn)] = self._wrap(qual, fn, name_of=_cli_span_name)
            else:
                wrappers[id(fn)] = self._wrap(qual, fn, table=TABLE_RETURNING.get(qual, False))
        self._undo = _rebind(wrappers)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def _wrap(self, qual, fn, name_of=None, table=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else qual
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, self.clock(), parent, self.verdict)
            if table is not False:
                self._count_table(result if table is None else getattr(result, table))
            return result

        return traced

    def _count_table(self, alg) -> None:
        t0 = time.perf_counter()
        n = len(alg.labels)
        nnz = sum(1 for row in alg.table for cell in row if cell)
        self.tables[0] += n * n
        self.tables[1] += nnz
        self.exclude(time.perf_counter() - t0)

    def aggregate(self, scale) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans of that name) and
        self_s (duration minus the time covered by child spans), each
        duration multiplied by ``scale[verdict]``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent, verdict) in enumerate(self.spans):
            row = agg[name]
            row["calls"] += 1
            row["self_s"] += (end - start - child_time[i]) * scale[verdict]
            if not self._has_ancestor(i, name):
                row["total_s"] += (end - start) * scale[verdict]
        return dict(agg)

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def top_level(self, scale) -> list[tuple[int, str, float]]:
        """(verdict, name, scaled seconds) of every span with no parent."""
        return [
            (verdict, name, (end - start) * scale[verdict])
            for name, start, end, parent, verdict in self.spans
            if parent < 0
        ]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    if not argv:
        return "cli.main"
    if argv[0] == "compare" and "--mode" in argv:
        return f"cli.main.compare_{argv[argv.index('--mode') + 1]}"
    return f"cli.main.{argv[0]}"


class AlgebraPeak:
    """Largest tracemalloc peak above the entry level of any outermost
    ``algebra`` call, while installed (tracemalloc must be running)."""

    def __init__(self):
        self.peak_bytes = 0
        self._depth = 0
        self._undo: list = []

    def install(self) -> None:
        wrappers = {
            id(fn): self._wrap(fn)
            for qual, fn in _public_functions()
            if qual.startswith("algebra.")
        }
        self._undo = _rebind(wrappers)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def _wrap(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                self.peak_bytes = max(
                    self.peak_bytes, tracemalloc.get_traced_memory()[1] - base
                )

        return measured
