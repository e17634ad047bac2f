"""Spans around every call into boxdyn's layers, recorded from outside.

A Tracer replaces each traced function or class of the boxdyn modules,
in every boxdyn namespace that holds it, by a wrapper that records a
span: its name (``<module>.<function>``), start, end, parent span and
any counts taken from the call's result.  Leaving the ``with`` block
puts the originals back.  Spans stay in memory; the caller writes them
out after the run, so tracing does no I/O while the workload runs.

A layer's self time is a span's duration minus the time its direct
child spans cover; summed over spans of one name it is the per-layer
time the benchmark reports.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict

from boxdyn import (cli, compare, conley, graph_dynamics, homology, oracles,
                    outer_approx)

# modules whose namespaces are searched for references to patch
_MODULES = (outer_approx, graph_dynamics, homology, conley, compare, cli)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _betti_sum(basis) -> int:
    dim = basis.complex.grid.dimension
    return sum(basis.rank(k) for k in range(dim + 1))


# (owner, attribute, span name, counter); a counter maps the call's
# result to the counts recorded on the span
_TRACED = (
    (outer_approx, "build_boxmap", "outer_approx.build_boxmap",
     lambda bm: {"edges": bm.total_edges()}),
    (graph_dynamics, "condensation", "graph_dynamics.condensation", None),
    (graph_dynamics, "morse_graph", "graph_dynamics.morse_graph",
     lambda mg: {"morse_nodes": len(mg.nodes),
                 "downset_boxes": sum(int(d.size) for d in mg.downsets)}),
    (graph_dynamics, "index_pair", "graph_dynamics.index_pair",
     lambda pair: {"p1_boxes": int(pair.p1.size)}),
    (homology, "PairComplex", "homology.pair_complex",
     lambda cx: {"cells": len(cx)}),
    (homology, "HomologyBasis", "homology.homology_basis",
     lambda basis: {"betti_sum": _betti_sum(basis)}),
    (homology, "chain_map", "homology.chain_map",
     lambda cm: {"rss_mb": _rss_mb()}),
    (homology, "induced_homology_map", "homology.induced_map", None),
    (conley, "shift_class", "conley.shift_class", None),
    (conley, "shift_invariant_factors", "conley.shift_invariant_factors",
     None),
    (conley, "conley_index", "conley.conley_index", None),
    (compare, "project", "compare.project", None),
    (compare, "check_epimorphism", "compare.check_epimorphism", None),
    (cli, "main", "cli.main", None),
    (cli, "load_trajectory_data", "cli.load_trajectory_data", None),
    (cli, "write_outputs", "cli.write_outputs", None),
)


def _oracle_classes():
    """Oracle classes that define their own image_rects."""
    out = []
    for value in vars(oracles).values():
        if (isinstance(value, type) and issubclass(value, oracles.MapOracle)
                and "image_rects" in vars(value)):
            out.append(value)
    return out


class Tracer:
    """Records spans around boxdyn calls while active (a context manager)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespace, attr, replacement):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def __enter__(self):
        for owner, attr, name, counter in _TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for module in (sys.modules["boxdyn"],) + _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls in _oracle_classes():
            original = vars(cls)["image_rects"]
            self._patch(cls, "image_rects",
                        self._wrap(original, "oracles.image_rects", None))
        return self

    def __exit__(self, *exc):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)
        return False

    # -- reading the spans -------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(float)
        for k, span in enumerate(self.spans):
            out[span["name"]] += span["end"] - span["start"] - covered[k]
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)

    def count_sum(self, name: str, key: str) -> int:
        return sum(s["counts"][key] for s in self.spans if s["name"] == name)

    def count_max(self, name: str, key: str) -> float:
        vals = [s["counts"][key] for s in self.spans if s["name"] == name]
        return max(vals) if vals else 0.0
