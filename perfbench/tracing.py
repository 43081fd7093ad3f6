"""Span tracer that wraps library functions where their callers look them up.

The CLI and the solvers call each other through module globals
(`balcut.vbp.sep_dp`, `balcut.cwcut.eval_qexpr`, ...) or through a module
attribute (`cli` calls `formats.parse_graph`).  Replacing those names with a
timing wrapper records one span per call without touching the program.
Spans stay in memory; a layer's self time is its span's duration minus the
time covered by the spans nested directly inside it.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _len_or_zero(x) -> int:
    return len(x) if x is not None else 0


# (module where the caller looks the name up, attribute, span name, counts)
# `counts(args, result)` returns count increments taken from public values.
PATCHES = [
    ("balcut.cli", "solve_vertex_bisection", "vbp.solve_vertex_bisection", None),
    ("balcut.cli", "build_trimmer", "torso.build_trimmer",
     lambda a, r: {"torso.trimmed_n": r.g_star.n}),
    ("balcut.cli", "solve_bisection_cwd", "cwcut.solve_bisection_cwd",
     lambda a, r: {"cwcut.deletion_size": len(frozenset(a[1]))}),
    ("balcut.cli", "solve_balanced_partition_vc", "vcpart.solve_balanced_partition_vc", None),
    ("balcut.vbp", "build_trimmer", "torso.build_trimmer",
     lambda a, r: {"torso.trimmed_n": r.g_star.n}),
    ("balcut.vbp", "exact_treewidth_small", "td.exact_treewidth_small",
     lambda a, r: {"td.width": r[0]}),
    ("balcut.vbp", "make_nice", "td.make_nice", lambda a, r: {"td.nice_nodes": len(r.bags)}),
    ("balcut.vbp", "sep_dp", "vbp.sep_dp", lambda a, r: {"vbp.sep_dp.entries": len(r.entries)}),
    ("balcut.torso", "minimal_st_separators", "torso.minimal_st_separators",
     lambda a, r: {"torso.separators_found": _len_or_zero(r)}),
    ("balcut.cwcut", "normalize_qexpr", "qexpr.normalize_qexpr", None),
    ("balcut.cwcut", "eval_qexpr", "qexpr.eval_qexpr", None),
    ("balcut.cwcut", "joins_are_full", "qexpr.joins_are_full", None),
    ("balcut.cwcut", "cut_dp", "cwcut.cut_dp",
     lambda a, r: {"cwcut.table_entries": sum(len(t) for _, t in r.tables.values())}),
    ("balcut.vcpart", "min_vertex_cover", "vcpart.min_vertex_cover",
     lambda a, r: {"vcpart.cover_size": _len_or_zero(r)}),
    ("balcut.vcpart", "min_cost_assignment", "vcpart.min_cost_assignment", None),
    ("balcut.formats", "parse_graph", "formats.parse_graph", None),
    ("balcut.formats", "emit_solution", "formats.emit_solution", None),
    ("balcut.formats", "emit_graph", "formats.emit_graph", None),
]

# A generator returns before its work is done, so it is counted by items.
GENERATORS = [
    ("balcut.vcpart", "enumerate_cover_partitions", "vcpart.enumerate_cover_partitions.items"),
]

ROOT = "cli.main"


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES and GENERATORS; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counts in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            for module_name, attr, name in GENERATORS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap_generator(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds `s`, and `self_s`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out


def patched_names():
    """(module, attribute) of every name the tracer replaces."""
    return [(m, a) for m, a, *_ in PATCHES] + [(m, a) for m, a, _ in GENERATORS]


# Span names in report order, and counts reported as a mean per call of the
# function they come from rather than as a per-pass total.
SPAN_NAMES = [ROOT] + list(dict.fromkeys(name for _, _, name, _ in PATCHES))
MEAN_COUNTS = {
    "td.width": "td.exact_treewidth_small",
    "cwcut.deletion_size": "cwcut.solve_bisection_cwd",
    "vcpart.cover_size": "vcpart.min_vertex_cover",
}
COUNT_NAMES = [
    "torso.separators_found",
    "torso.trimmed_n",
    "td.width",
    "td.nice_nodes",
    "vbp.sep_dp.entries",
    "cwcut.table_entries",
    "cwcut.deletion_size",
    "vcpart.cover_size",
    "vcpart.enumerate_cover_partitions.items",
]
