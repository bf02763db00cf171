"""Stable dual trees: the curve-tree walk and the canonical shape key.

The stable tree, its raw intake and the surgery on one tree live in the
private core :mod:`stablecurves._tree`; this module re-exports them, so its
``__all__`` names the whole tree layer.  What it adds reads curve trees,
the trees of the one-dimensional strata, with n - 4 edges: the 4-flag
vertex and 4-block partition of one curve tree, every curve tree class by
class from a per-size memo of the ways a block hangs below an edge, all
trees of a given codimension, and the canonical key of a tree's unlabeled
shape.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from ._base import InvariantError, _Record, _check_internal, _integer, _length, bits_of
from ._tree import (
    PartitionSetSignature,
    StableTree,
    contract_edge,
    edge_cut,
    forget_and_stabilize,
    make_tree,
    signature,
    tree_from_signature,
    tree_violations,
)
from .partitions import (
    DistinguishedPartition,
    LabelSet,
    _require_bound,
    _require_labels,
    _shape_counts,
    enumerate_distinguished,
    enumerate_stable_two_partitions,  # noqa: F401  bench/spans.py patches this name
)

__all__ = [
    "StableTree",
    "PartitionSetSignature",
    "make_tree",
    "tree_violations",
    "edge_cut",
    "signature",
    "tree_from_signature",
    "contract_edge",
    "forget_and_stabilize",
    "exceptional_vertex",
    "pi_of_tree",
    "CurveTrees",
    "enumerate_curve_trees",
    "enumerate_trees",
    "unlabeled_type_key",
]


def exceptional_vertex(t: StableTree) -> int:
    """Index of the unique 4-flag vertex of a one-dimensional stratum tree.

    Defined only for trees with n - 4 edges: each vertex has three flags or
    more, and the excess sums to n - 3 less the edge count, so exactly one
    vertex has four flags and every other vertex has three.
    """
    n = t.label_set.n
    if t.codimension != n - 4:
        _require_labels(t.label_set, 4)
        raise InvariantError(
            f"not a curve tree: expected {n - 4} edges, got {t.codimension}"
        )
    vertex_tails, _, _, neighbours = t._layout
    return [m.bit_count() + len(adj) for m, adj in zip(vertex_tails, neighbours)].index(4)


def pi_of_tree(t: StableTree) -> DistinguishedPartition:
    """The 4-block partition read off a curve tree at its 4-flag vertex.

    Each tail there contributes a singleton block; each incident edge
    contributes the labels on its far side.
    """
    v0 = exceptional_vertex(t)
    vertex_tails, _, sides, neighbours = t._layout
    blocks = [1 << i for i in bits_of(vertex_tails[v0])]
    for w in neighbours[v0]:
        # A child's block is its side; the parent's is all but v0's side.
        blocks.append(sides[w] if w > v0 else t.label_set.full_mask ^ sides[v0])
    return DistinguishedPartition(t.label_set, blocks)


@lru_cache(maxsize=None)
def _local_hanging(k: int) -> tuple[tuple[int, ...], ...]:
    """The ways the tails 0..k-1 hang below an edge, for k >= 2, each as its cuts.

    Each way starts with the block's own cut and goes on with the cuts of
    a rooted trivalent tree on its tails; there are (2k - 3)!! ways.  One
    memo entry per block size serves every block of k labels, read in place.
    The root splits the tails into the side holding tail 0 and the other
    side, which runs over the submasks of tails 1..k-1 in ascending order,
    and the two sides hang below the root as :func:`_hang` says.
    """
    full = (1 << k) - 1
    return tuple([(full, *way) for b in range(2, full, 2) for way in _hang((full ^ b, b))])


def _deposit(mask: int) -> list[int]:
    """Local submask -> the same submask in the bits of ``mask``, in numeric order."""
    table = [0]
    for bit in bits_of(mask):
        table += [d | 1 << bit for d in table]
    return table


def _hang(masks: Iterable[int]) -> Iterator[list[int]]:
    """Every way the disjoint blocks ``masks`` hang below their edges, each as its cuts.

    A single label hangs with no cut.  A larger block takes the memo's ways
    for its size, deposited onto its bits as each way is built, with no copy
    of the memo.  The first block varies slowest.
    """
    blocks = [m for m in masks if m & (m - 1)]
    tables = [_deposit(m) for m in blocks]
    for chosen in product(*[_local_hanging(m.bit_count()) for m in blocks]):
        yield [t[m] for t, way in zip(tables, chosen) for m in way]


def _class_size(shape: Iterable[int]) -> int:
    """Number of curve trees in a class with the given block sizes, by closed formula.

    A block of k labels hangs below the 4-flag vertex as a rooted trivalent
    tree on k tails, of which there are (2k - 3)!!; blocks choose their
    trees independently.
    """
    return math.prod(math.prod(range(1, 2 * k - 2, 2)) for k in shape)


def _curve_trees_in_class(pi: DistinguishedPartition) -> Iterator[StableTree]:
    """Every curve tree whose 4-flag vertex reads off ``pi``, one at a time."""
    return (StableTree(pi.label_set, cuts) for cuts in _hang(pi.block_masks))


class CurveTrees(_Record):
    """The curve trees over a label set, built one at a time as they are read.

    Trees come grouped by their 4-block partition, in the order of
    :func:`enumerate_distinguished`, which each pass walks afresh.  Equal,
    and hashed alike, when the label sets are.  The length is the
    closed-form count, summed over block-size shapes, so it costs no class
    and no tree.  ``list(...)`` gives random access.
    """

    label_set: LabelSet

    def __len__(self) -> int:
        counts = _shape_counts(self.label_set.n)
        return _length(sum(count * _class_size(shape) for shape, count in counts.items()))

    def __iter__(self) -> Iterator[StableTree]:
        produced = 0
        for pi in enumerate_distinguished(self.label_set):
            for tree in _curve_trees_in_class(pi):
                produced += 1
                yield tree
        _check_internal(produced == len(self), "curve tree count disagrees with its closed form")


def enumerate_curve_trees(s: LabelSet) -> CurveTrees:
    """All stable trees with n - 4 edges, grouped by their 4-block partition.

    The result is a lazy, sized, re-iterable :class:`CurveTrees`, which
    builds each class and tree only when read, so it takes no ``max_n``.
    """
    _require_labels(s, 4)
    return CurveTrees(s)


def enumerate_trees(s: LabelSet, codim: int) -> list[StableTree]:
    """All stable trees over ``s`` with exactly ``codim`` edges.

    Each comes once, from a tree on the labels before the last by placing
    the last on a vertex, on a new vertex in an edge or beside a tail.  The
    star tree is admitted at any n; past it, at most ``DEFAULT_MAX_N`` labels.
    """
    _require_labels(s, 3)
    codim = _integer(codim, "codimension")
    if codim < 0 or codim > s.n - 3:
        raise InvariantError(f"codimension {codim} out of range 0..{s.n - 3}")
    if codim:
        _require_bound(s, None)
    out: list[StableTree] = []
    stack: list[tuple[list[int], int]] = [([], 8)]  # cuts on the labels below bit b, and b
    while stack:
        cuts, b = stack.pop()
        if b > s.full_mask:
            out.append(StableTree(s, cuts))
            continue
        if codim - len(cuts) <= s.n - b.bit_length():  # a label left per cut still to add
            for x in (b - 1, *cuts):  # on the root, which no cut holds, or below cut x
                stack.append(([c | b if c & x == x else c for c in cuts], b << 1))
        if len(cuts) < codim:  # in edge x or by tail x; the cut {0, b} is kept as b - 2
            for x in (*cuts, *[1 << i for i in range(b.bit_length() - 1)]):
                grown = [c | b if c & x == x != c else c for c in cuts]
                stack.append((grown + [x | b if x > 1 else b - 2], b << 1))
    return out


def _centroids(t: StableTree) -> list[int]:
    """Vertices whose removal leaves the smallest largest component."""
    nv = t.n_vertices
    # Canonical edge k is (parent, k + 1) and every vertex follows its
    # parent, so the reversed edges reach each subtree before its top.
    size = [1] * nv
    for parent, child in reversed(t.edges):
        size[parent] += size[child]
    worst = [nv - m for m in size]  # the component on the side of vertex 0
    for parent, child in t.edges:
        worst[parent] = max(worst[parent], size[child])
    best = min(worst)
    return [v for v in range(nv) if worst[v] == best]


def unlabeled_type_key(t: StableTree) -> str:
    """Canonical string naming the unlabeled shape of ``t``.

    Vertices carry only their tail counts.  Curve trees are rooted at the
    4-flag vertex; all other trees at the centroid, taking the smaller of
    the two encodings at a bicentroid.
    """
    vertex_tails, _, _, neighbours = t._layout
    if t.codimension == t.label_set.n - 4:
        roots = [exceptional_vertex(t)]
    else:
        roots = _centroids(t)
    return min(_shape_code(vertex_tails, neighbours, r, -1) for r in roots)


def _shape_code(tails: Sequence[int], adj: Sequence[Sequence[int]], v: int, parent: int) -> str:
    # A module-level function, not a closure: a self-referencing closure
    # would hold each tree in a reference cycle until the collector runs.
    kids = sorted(_shape_code(tails, adj, w, v) for w in adj[v] if w != parent)
    return f"{tails[v].bit_count()}[{','.join(kids)}]"
