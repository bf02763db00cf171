"""Helpers shared by several test modules; pytest collects nothing here."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import stablecurves
from stablecurves import (
    DistinguishedPartition,
    TwoPartition,
    compatible,
    edge_cut,
    exceptional_vertex,
    signature,
)


def stirling_4(n):
    """Stirling partition number S(n, 4) by the standard recurrence."""
    row = {(0, 0): 1}
    for m in range(1, n + 1):
        for k in range(0, 5):
            row[(m, k)] = k * row.get((m - 1, k), 0) + row.get((m - 1, k - 1), 0)
    return row[(n, 4)]


def as_pair(sigma):
    return frozenset((frozenset(sigma.part_a), frozenset(sigma.part_b)))


def odd_product_class_size(pi):
    """Curves in the class of ``pi``: 1 * 3 * ... * (2k - 3) for each block of k labels."""
    return math.prod(math.prod(range(2 * len(b) - 3, 0, -2)) for b in pi.blocks)


def act(perm, x):
    """The relabelling ``perm`` applied to a 2-partition or 4-block partition.

    ``perm[i]`` is where the ``i``-th smallest label goes.  Each mask bit is
    moved, and the record is rebuilt by its constructor, so the canonical
    side and the block order are derived again rather than carried over.
    """

    def image(mask):
        return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)

    if isinstance(x, TwoPartition):
        return TwoPartition(x.label_set, image(x.part_b_mask))
    return DistinguishedPartition(x.label_set, [image(m) for m in x.block_masks])


def pair_via_curve_tree(sigma, tree):
    """Pairing read off one curve tree instead of the 4-block partition.

    The divisor meets the curve negatively when sigma is a cut at an edge
    touching the 4-flag vertex, positively when sigma is no cut at all but
    is compatible with every cut, and not at all otherwise.
    """
    cuts = set(signature(tree).partitions)
    if sigma in cuts:
        v0 = exceptional_vertex(tree)
        at_v0 = {edge_cut(tree, e) for e in tree.edges if v0 in e}
        return -1 if sigma in at_v0 else 0
    if all(compatible(sigma, c) for c in cuts):
        return 1
    return 0


def traced_peak_mib(fn):
    """Peak of the Python memory ``fn`` allocates while it runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def python_env():
    src = str(Path(stablecurves.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args, timeout=120, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=python_env(),
        timeout=timeout,
    )
