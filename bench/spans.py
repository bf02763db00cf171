"""In-memory spans around the package's layer boundaries, and their totals.

A span is (name, start, end, parent, run id).  Spans are stored column-wise
in arrays, so a traced census at n = 9, which records about two million of
them, costs tens of megabytes rather than hundreds.  They are aggregated
and written out once the traced work has finished.

Spans are recorded from the benchmark's own code: :meth:`Tracer.patch`
replaces a name that one module of the package imports from the layer
below, and :meth:`Tracer.wrap` wraps a function the benchmark calls itself.
A span opened while another span of the same name is active is folded into
the outer one, so nested constructions are counted once.
"""

from __future__ import annotations

import gc
import pickle
import time
from array import array

# (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = [
    ("trees.enumerate_curve_trees.s", "s", "lower"),
    ("trees.enumerate_curve_trees.items", "count", "lower"),
    ("trees.pi_of_tree.s", "s", "lower"),
    ("trees.pi_of_tree.calls", "count", "lower"),
    ("trees.unlabeled_type_key.s", "s", "lower"),
    ("trees.unlabeled_type_key.calls", "count", "lower"),
    ("trees.unlabeled_type_key.distinct", "count", "higher"),
    ("trees.make_tree.s", "s", "lower"),
    ("trees.make_tree.calls", "count", "lower"),
    ("trees.signature.s", "s", "lower"),
    ("trees.signature.calls", "count", "lower"),
    ("trees.contract_edge.s", "s", "lower"),
    ("trees.contract_edge.calls", "count", "lower"),
    ("trees.forget_and_stabilize.s", "s", "lower"),
    ("trees.forget_and_stabilize.calls", "count", "lower"),
    ("intersect.intersection_matrix.s", "s", "lower"),
    ("intersect.intersection_matrix.cells", "count", "lower"),
    ("intersect.intersection_matrix.nonzero", "count", "lower"),
    ("intersect.matrix_rank.s", "s", "lower"),
    ("intersect.matrix_rank.rank", "count", "higher"),
    ("intersect.pair_divisor_curve.s", "s", "lower"),
    ("intersect.pair_divisor_curve.calls", "count", "lower"),
    ("intersect.minus_k_expanded.s", "s", "lower"),
    ("intersect.minus_k_expanded.calls", "count", "lower"),
    ("intersect.minus_k_closed.s", "s", "lower"),
    ("intersect.minus_k_closed.calls", "count", "lower"),
    ("partitions.enumerate_distinguished.s", "s", "lower"),
    ("partitions.enumerate_distinguished.items", "count", "lower"),
    ("partitions.enumerate_stable_two_partitions.s", "s", "lower"),
    ("partitions.enumerate_stable_two_partitions.items", "count", "lower"),
    ("partitions.construct.s", "s", "lower"),
    ("partitions.construct.calls", "count", "lower"),
    ("census.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Spans whose own time is reported as ``<layer>.self_s``.
SELF_TIMES = {"census.self_s": "census.run_census", "cli.self_s": "cli.main"}

CONSTRUCT = "partitions.construct"


def _items(tracer: "Tracer", name: str, result) -> None:
    tracer.add(name + ".items", len(result))


def _distinct(tracer: "Tracer", name: str, result) -> None:
    tracer.distinct.setdefault(name + ".distinct", set()).add(result)


def _matrix(tracer: "Tracer", name: str, result) -> None:
    # Counting nonzeros walks every cell, so it waits until the traced work
    # is over instead of inflating the caller's self time.
    tracer.deferred.append((name, result))


def _rank(tracer: "Tracer", name: str, result) -> None:
    tracer.add(name + ".rank", result)


# (importing module, imported name, span name, hook) for the CLI workloads.
CLI_BOUNDARIES = [
    ("cli", "run_census", "census.run_census", None),
    ("cli", "intersection_matrix", "intersect.intersection_matrix", _matrix),
    ("cli", "matrix_rank", "intersect.matrix_rank", _rank),
    ("census", "enumerate_curve_trees", "trees.enumerate_curve_trees", _items),
    ("census", "pi_of_tree", "trees.pi_of_tree", None),
    ("census", "unlabeled_type_key", "trees.unlabeled_type_key", _distinct),
    ("census", "make_tree", "trees.make_tree", None),
    ("census", "minus_k_closed", "intersect.minus_k_closed", None),
    ("census", "enumerate_distinguished", "partitions.enumerate_distinguished", _items),
    ("intersect", "pi_of_tree", "trees.pi_of_tree", None),
    ("intersect", "enumerate_distinguished", "partitions.enumerate_distinguished", _items),
    (
        "intersect",
        "enumerate_stable_two_partitions",
        "partitions.enumerate_stable_two_partitions",
        _items,
    ),
    ("trees", "enumerate_distinguished", "partitions.enumerate_distinguished", _items),
    (
        "trees",
        "enumerate_stable_two_partitions",
        "partitions.enumerate_stable_two_partitions",
        _items,
    ),
]

# Span names of the library calls in one query; the two ``.of`` constructors
# are spanned as partitions.construct.
QUERY_CALLS = {
    "make_tree": "trees.make_tree",
    "signature": "trees.signature",
    "contract_edge": "trees.contract_edge",
    "forget_and_stabilize": "trees.forget_and_stabilize",
    "pi_of_tree": "trees.pi_of_tree",
    "unlabeled_type_key": "trees.unlabeled_type_key",
    "pair_divisor_curve": "intersect.pair_divisor_curve",
    "minus_k_expanded": "intersect.minus_k_expanded",
}
QUERY_HOOKS = {"trees.unlabeled_type_key": _distinct}


class Tracer:
    """Records spans and counters; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self._stack = [-1]
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.deferred: list = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self._patches: list = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span named ``name`` per outermost call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        nid = self._ids[name]
        active, stack = self._active, self._stack
        names, parents, runs = self.name, self.parent, self.run
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            active[nid] = 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] = 0
            if hook is not None:
                hook(self, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patches.append((owner, attr, original))

    def patch_construction(self, partitions_module) -> None:
        """Span every validated construction of a 2- or 4-block partition."""
        for cls in (partitions_module.TwoPartition, partitions_module.DistinguishedPartition):
            self.patch(cls, "__post_init__", CONSTRUCT)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def watch_gc(self, on: bool) -> None:
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)

    def reset_counts(self) -> None:
        self.counters = {}
        self.distinct = {}
        self.deferred = []
        self.gc_s = 0.0
        self.gc_collections = 0

    def snapshot(self) -> dict:
        """Spans and counters as plain data, deferred counts resolved."""
        for name, m in self.deferred:
            self.add(name + ".cells", len(m.rows) * len(m.cols))
            self.add(name + ".nonzero", sum(1 for row in m.entries for x in row if x))
        self.deferred = []
        counters = dict(self.counters)
        for key, values in self.distinct.items():
            counters[key] = len(values)
        return {
            "names": list(self.names),
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
            "counters": counters,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


def install_cli(tracer: Tracer) -> None:
    """Patch every CLI-workload layer boundary of the imported package."""
    import importlib

    for module, attr, name, hook in CLI_BOUNDARIES:
        tracer.patch(importlib.import_module("stablecurves." + module), attr, name, hook)
    tracer.patch_construction(importlib.import_module("stablecurves.partitions"))


def dump(data: dict, path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path) -> dict:
    # Only files written by ``dump`` in this benchmark's own worker.
    with open(path, "rb") as fh:
        return pickle.load(fh)


def span_totals(data: dict, lo: int = 0, hi: int | None = None) -> dict[str, tuple]:
    """(seconds, calls, self seconds) per span name over the spans ``lo:hi``.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since there is one thread.
    """
    names = data["names"]
    name, parent, start, end = data["name"], data["parent"], data["start"], data["end"]
    hi = len(start) if hi is None else hi
    total = [0.0] * len(names)
    calls = [0] * len(names)
    child = [0.0] * len(names)
    for i in range(lo, hi):
        d = end[i] - start[i]
        k = name[i]
        total[k] += d
        calls[k] += 1
        p = parent[i]
        if p >= 0:
            child[name[p]] += d
    return {n: (total[k], calls[k], total[k] - child[k]) for k, n in enumerate(names) if calls[k]}


def unit_metrics(data: dict, by_name: dict[str, tuple]) -> dict[str, float]:
    """Per-layer metrics from one unit's span totals and the snapshot's counters."""
    none = (0.0, 0, 0.0)
    out: dict[str, float] = {
        "runtime.gc_s": data["gc_s"],
        "runtime.gc_collections": data["gc_collections"],
    }
    for metric, _unit, _better in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in out or metric == "trace.overhead_s":
            continue  # the overhead compares traced and plain runs
        if metric in SELF_TIMES:
            out[metric] = by_name.get(SELF_TIMES[metric], none)[2]
        elif field == "s":
            out[metric] = by_name.get(span, none)[0]
        elif field == "calls":
            out[metric] = by_name.get(span, none)[1]
        else:
            out[metric] = data["counters"].get(metric, 0)
    return out
