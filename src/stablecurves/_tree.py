"""The stable tree and its single-tree surgeries.

A stable tree carries the labels as tails on its vertices; every vertex has
at least three flags (tails plus edge ends).  Cutting any edge splits the
labels into a stable 2-partition, and the set of these cuts determines the
tree up to isomorphism.  A tree is therefore stored as its cut family, and
its vertices and edges are derived from it, the one place that checks the
cuts form a stable tree, in one canonical numbering per isomorphism class:
vertex 0 holds the smallest label and the rest follow in breadth-first
order, each edge stored as (parent, child).

This private module holds the tree and the surgery on one tree; the raw
intake in :mod:`stablecurves._raw` imports it, never the reverse, and
:mod:`stablecurves.trees` re-exports the public names of both.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from ._base import InvariantError, _Record, _integer, _low_bit, bits_of
from .partitions import LabelSet, TwoPartition, _masks_compatible, partition_sort_key


class StableTree(_Record):
    """A stable tree, stored as its family of edge cuts.

    The constructor takes each cut as either of its sides, as a bitmask,
    in any order, repeated or not, and keeps each cut once.  ``cuts``
    holds, for every edge, the side that avoids the smallest label; the
    masks are sorted as integers, so structural equality coincides with
    isomorphism over the same label set.  The constructor refuses only a
    mask that is not a proper nonempty subset of the labels.

    ``vertex_tails`` and ``edges`` are derived from the cuts on first use,
    in the canonical numbering the module docstring describes; the
    derivation refuses crossing cuts and vertices with fewer than three
    flags, so every reading of the shape, :func:`signature` and
    :func:`forget_and_stabilize` refuse what is no stable tree.
    """

    label_set: LabelSet
    cuts: tuple[int, ...]

    def __init__(self, label_set: LabelSet, cuts: Iterable[int]) -> None:
        full = label_set.full_mask
        try:
            masks = tuple(sorted({m ^ full if m & 1 else m for m in cuts}))
        except TypeError:
            raise InvariantError(f"cuts must be integer masks, got {cuts!r}") from None
        if masks and (masks[0] <= 0 or masks[-1] >= full):
            raise InvariantError(f"cuts must be proper nonempty subsets of the {label_set.n} labels, got {cuts!r}")
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "cuts", masks)

    @cached_property
    def _layout(self) -> tuple[
        tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...], tuple[tuple[int, ...], ...]
    ]:
        """Per canonical vertex: its tails, the (parent, child) edges, its side, its neighbours.

        The side of vertex v is the set of labels at or below it, away from
        vertex 0: every label for vertex 0, and the cut of edge k for vertex
        k + 1, the child of that edge.
        """
        # Parent of a cut is its smallest proper superset in the family.  In
        # ascending order the parentless cuts are pairwise disjoint, and a
        # later cut meeting one contains it (a subset is smaller) or crosses
        # it; a cut crossing any earlier cut crosses one of these.  Each cut
        # adopts the parentless cuts it meets; the rest hang from vertex 0.
        kids: dict[int, list[int]] = {}
        top: list[int] = []
        for y in self.cuts:
            adopted: list[int] = []
            parentless = [y]
            for x in top:
                if not x & y:
                    parentless.append(x)
                elif _masks_compatible(x, y):
                    adopted.append(x)
                else:
                    raise InvariantError(f"incompatible set: cuts {x} and {y} cross")
            kids[y] = adopted
            top = parentless
        kids[self.label_set.full_mask] = top

        # Breadth-first from vertex 0: the list of sides grows while it is
        # read, and vertex v, the one with side sides[v], needs three flags.
        sides = [self.label_set.full_mask]
        vertex_tails: list[int] = []
        edges: list[tuple[int, int]] = []
        neighbours: list[list[int]] = [[]]
        for v, m in enumerate(sides):
            inner = 0
            for c in sorted(kids[m], key=_low_bit):
                inner |= c
                child = len(sides)
                edges.append((v, child))
                neighbours[v].append(child)
                neighbours.append([v])
                sides.append(c)
            vertex_tails.append(tails := m & ~inner)
            if (flags := tails.bit_count() + len(neighbours[v])) < 3:
                raise InvariantError(f"unstable vertex {v}: only {flags} flags")
        return tuple(vertex_tails), tuple(edges), tuple(sides), tuple([tuple(a) for a in neighbours])

    @property
    def vertex_tails(self) -> tuple[int, ...]:
        return self._layout[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._layout[1]

    @property
    def n_vertices(self) -> int:
        return len(self.cuts) + 1

    @property
    def codimension(self) -> int:
        return len(self.cuts)

    def tails_at(self, v: int) -> tuple:
        v = _integer(v, "vertex")
        if not 0 <= v < self.n_vertices:
            raise InvariantError(f"vertex {v!r} out of range 0..{self.n_vertices - 1}")
        return self.label_set.labels_of(self.vertex_tails[v])

    def to_object(self) -> dict:
        """Plain-data form: each vertex's tails and each (parent, child) edge, canonically numbered."""
        return {
            "vertices": [list(self.tails_at(v)) for v in range(self.n_vertices)],
            "edges": [list(e) for e in self.edges],
        }


class PartitionSetSignature(_Record):
    """A set of pairwise compatible, distinct stable 2-partitions.

    The constructor takes the partitions in any order, sorts them in the
    canonical partition order, and refuses what that sort cannot read as
    2-partitions; :func:`tree_from_signature` checks the rest.  Two stable
    trees are isomorphic exactly when their signatures are equal.
    """

    label_set: LabelSet
    partitions: tuple[TwoPartition, ...]

    def __init__(self, label_set: LabelSet, partitions: Iterable[TwoPartition]) -> None:
        try:
            parts = tuple(sorted(partitions, key=partition_sort_key))
        except (AttributeError, TypeError):
            raise InvariantError(f"partitions must be 2-partitions, got {partitions!r}") from None
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "partitions", parts)


def _edge(e) -> tuple[int, int]:
    """``e`` as a pair of vertex indices; anything else, ``bool`` too, is a malformed edge."""
    pair = tuple(e) if hasattr(e, "__iter__") else e
    if type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int:
        return pair
    raise InvariantError(f"malformed edge {pair!r}")


def edge_cut(t: StableTree, e: Sequence[int]) -> TwoPartition:
    """The stable 2-partition obtained by cutting edge ``e`` of ``t``.

    ``e`` is a pair of canonical vertex indices in either order.
    """
    i, j = _edge(e)
    _, edges, sides, _ = t._layout
    # Canonical edge k is (parent, k + 1), and its cut is its child's side.
    child = max(i, j)
    if 0 < child <= len(edges) and edges[child - 1] == (min(i, j), child):
        return TwoPartition(t.label_set, sides[child])
    raise InvariantError(f"unknown edge ({i}, {j})")


def signature(t: StableTree) -> PartitionSetSignature:
    """The edge cuts of ``t``, the complete isomorphism invariant; its layout refuses what is no tree."""
    t._layout
    return PartitionSetSignature(t.label_set, [TwoPartition(t.label_set, m) for m in t.cuts])


def tree_from_signature(sig: PartitionSetSignature) -> StableTree:
    """Rebuild the unique stable tree whose edge cuts are ``sig``.

    The partitions must be distinct, compatible cuts of the signature's
    own label set.
    """
    s, parts = sig.label_set, sig.partitions
    if any(p.label_set != s for p in parts):
        raise InvariantError("signature element over a different label set")
    if len(set(parts)) != len(parts):
        raise InvariantError("signature elements must be distinct")
    t = StableTree(s, [p.part_b_mask for p in parts])
    t._layout  # refuses crossing cuts here, not at the first reading
    return t


def contract_edge(t: StableTree, e: Sequence[int]) -> StableTree:
    """The tree with edge ``e`` contracted (its endpoints merged)."""
    cut = edge_cut(t, e).part_b_mask
    return StableTree(t.label_set, [m for m in t.cuts if m != cut])


def forget_and_stabilize(t: StableTree, q: Iterable) -> StableTree:
    """Remove the labels in ``q`` and restabilize.

    Every cut is restricted to the kept labels, and the restrictions that
    are still stable 2-partitions are the cuts of the result; this is the
    same as smoothing away bare vertices of degree two and merging
    degree-one vertices into their neighbors.  At least three labels must
    stay.  Like :func:`signature`, it refuses what is no tree.
    """
    t._layout
    s = t.label_set
    keep_mask = s.full_mask ^ s.mask_of(q)
    if keep_mask.bit_count() < 3:
        raise InvariantError("remaining label set too small: need at least 3 labels")
    kept = bits_of(keep_mask)
    new_s = LabelSet(s.labels_of(keep_mask))
    full = new_s.full_mask
    cuts = []
    for m in t.cuts:
        r = 0
        for new_bit, old_bit in enumerate(kept):
            if m >> old_bit & 1:
                r |= 1 << new_bit
        if r.bit_count() >= 2 and (full ^ r).bit_count() >= 2:
            cuts.append(r)
    return StableTree(new_s, cuts)
