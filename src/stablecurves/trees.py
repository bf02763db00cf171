"""Stable dual trees of boundary strata and their combinatorial surgeries.

A stable tree carries the labels as tails on its vertices; every vertex has
at least three flags (tails plus edge ends).  Cutting any edge splits the
labels into a stable 2-partition, and the set of these cuts determines the
tree up to isomorphism.  A tree is therefore stored as its cut family, and
its vertices and edges are derived from it in one canonical numbering per
isomorphism class: vertex 0 holds the smallest label and the rest follow in
breadth-first order, each edge stored as (parent, child).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .partitions import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    _LazySequence,
    _Record,
    _check_internal,
    _low_bit,
    _masks_compatible,
    _require_bound,
    _require_labels,
    _shape_counts,
    bits_of,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    partition_sort_key,
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


class StableTree(_Record):
    """A stable tree, stored as its family of edge cuts.

    The constructor takes each cut as either of its sides, as a bitmask,
    in any order, repeated or not, and keeps each cut once.  ``cuts``
    holds, for every edge, the side that avoids the smallest label; the
    masks are sorted as integers, so structural equality coincides with
    isomorphism over the same label set.  The constructor does not check
    that the cuts are laminar: :func:`make_tree` and
    :func:`tree_from_signature` do.

    ``vertex_tails`` and ``edges`` are derived from the cuts on first use,
    in the canonical numbering the module docstring describes.
    """

    label_set: LabelSet
    cuts: tuple[int, ...]

    def __init__(self, label_set: LabelSet, cuts: Iterable[int]) -> None:
        full = label_set.full_mask
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "cuts", tuple(sorted({m ^ full if m & 1 else m for m in cuts})))

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
        # ascending order the cuts still without a parent are pairwise
        # disjoint, and a later cut that meets one of them contains it, as a
        # superset has the larger value.  So each cut adopts the parentless
        # cuts it meets, and those left at the end hang from vertex 0.
        kids: dict[int, list[int]] = {}
        top: list[int] = []
        for y in self.cuts:
            adopted: list[int] = []
            parentless = [y]
            for x in top:
                (adopted if x & y else parentless).append(x)
            kids[y] = adopted
            top = parentless
        kids[self.label_set.full_mask] = top

        # Breadth-first from vertex 0: the list of sides grows while it is
        # read, and vertex v is the one with side sides[v].
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
            vertex_tails.append(m & ~inner)
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
        return self.label_set.labels_of(self.vertex_tails[v])


class PartitionSetSignature(_Record):
    """A set of pairwise compatible, distinct stable 2-partitions.

    The constructor takes the partitions in any order and stores them
    sorted in the canonical partition order.  Two stable trees are
    isomorphic exactly when their signatures are equal.  The constructor
    checks nothing else; :meth:`of` and :func:`tree_from_signature` do.
    """

    label_set: LabelSet
    partitions: tuple[TwoPartition, ...]

    def __init__(self, label_set: LabelSet, partitions: Iterable[TwoPartition]) -> None:
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "partitions", tuple(sorted(partitions, key=partition_sort_key)))

    @classmethod
    def of(cls, label_set: LabelSet, partitions: Iterable[TwoPartition]) -> "PartitionSetSignature":
        sig = cls(label_set, partitions)
        _check_signature(label_set, sig.partitions)
        return sig


def _check_signature(s: LabelSet, parts: Sequence[TwoPartition]) -> None:
    """Refuse anything but distinct, pairwise compatible cuts of ``s``."""
    if any(p.label_set != s for p in parts):
        raise InvariantError("signature element over a different label set")
    if len({p.part_b_mask for p in parts}) != len(parts):
        raise InvariantError("signature elements must be distinct")
    for x, y in combinations(parts, 2):
        if not _masks_compatible(x.part_b_mask, y.part_b_mask):
            raise InvariantError(f"incompatible set: {x.literal()} crosses {y.literal()}")


def _intake(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> tuple[list[str], list[int]]:
    """Every violation of a raw tree description, and the cut of each input edge.

    The cuts are given only when there are no violations, in the caller's
    edge order, each as the union of the tails on the side of its edge
    away from vertex 0, whichever way round the caller wrote the edge.
    """
    nv = len(vertex_tails)
    if nv == 0:
        return ["not a tree: no vertices"], []

    problems: list[str] = []
    pairs: list[tuple] = []
    adj: list[list[int]] = [[] for _ in range(nv)]
    for e in edges:
        pair = tuple(e)
        pairs.append(pair)
        if len(pair) != 2 or not all(isinstance(i, int) for i in pair):
            problems.append(f"not a tree: malformed edge {pair!r}")
            continue
        i, j = pair
        if not (0 <= i < nv and 0 <= j < nv):
            problems.append(f"not a tree: edge ({i}, {j}) names a missing vertex")
            continue
        if i == j:
            problems.append(f"not a tree: self-loop at vertex {i}")
            continue
        if j in adj[i]:
            problems.append(f"not a tree: duplicate edge ({i}, {j})")
        adj[i].append(j)
        adj[j].append(i)

    # Breadth-first from vertex 0, each vertex entered once, so the walk
    # ends on input with cycles too.  The parent of vertex 0 is -1, that
    # of an unreached vertex None.
    structural_ok = not problems
    parent: list[int | None] = [-1] + [None] * (nv - 1)
    order = [0]
    if structural_ok:
        if len(pairs) != nv - 1:
            problems.append(
                f"not a tree: {nv} vertices need {nv - 1} edges, got {len(pairs)}"
            )
        else:
            for v in order:
                for w in adj[v]:
                    if parent[w] is None:
                        parent[w] = v
                        order.append(w)
            if len(order) != nv:
                problems.append("not a tree: graph is disconnected")

    # Tails are counted by occurrence: a label repeated at one vertex is
    # reported as a repeat only, not also as a vertex short of flags.
    seen_labels: dict = {}
    tail_counts = [0] * nv
    below = [0] * nv  # tails of each vertex, then of its subtree below vertex 0
    for v, tails in enumerate(vertex_tails):
        for token in tails:
            if token not in s.labels:
                problems.append(f"label coverage: unknown label {token!r}")
                continue
            if token in seen_labels:
                problems.append(f"label coverage: label {token!r} appears more than once")
            seen_labels[token] = v
            tail_counts[v] += 1
            below[v] |= 1 << s.labels.index(token)
    for token in s.labels:
        if token not in seen_labels:
            problems.append(f"label coverage: missing label {token!r}")

    if structural_ok:
        for v in range(nv):
            flags = len(adj[v]) + tail_counts[v]
            if flags < 3:
                problems.append(f"unstable vertex {v}: only {flags} flags")
    if problems:
        return problems, []
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    return problems, [below[j] if parent[j] == i else below[i] for i, j in pairs]


def tree_violations(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> list[str]:
    """Every invariant violated by a raw tree description, as messages.

    An empty list means the description is a valid stable tree.
    """
    return _intake(vertex_tails, edges, s)[0]


def make_tree(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> StableTree:
    """Validate a raw description and return the canonical stable tree.

    Raises :class:`InvariantError` listing every violated invariant when the
    description is not a stable tree over ``s``.
    """
    problems, cuts = _intake(list(vertex_tails), list(edges), s)
    if problems:
        raise InvariantError("; ".join(problems))
    return StableTree(s, cuts)


def edge_cut(t: StableTree, e: Sequence[int]) -> TwoPartition:
    """The stable 2-partition obtained by cutting edge ``e`` of ``t``.

    ``e`` is a pair of canonical vertex indices in either order.
    """
    pair = tuple(e)
    if len(pair) != 2:
        raise InvariantError(f"malformed edge {pair!r}")
    i, j = pair
    _, edges, sides, _ = t._layout
    # Canonical edge k is (parent, k + 1), and its cut is its child's side.
    if isinstance(i, int) and isinstance(j, int):
        child = max(i, j)
        if 0 < child <= len(edges) and edges[child - 1] == (min(i, j), child):
            return TwoPartition(t.label_set, sides[child])
    raise InvariantError(f"unknown edge ({i}, {j})")


def signature(t: StableTree) -> PartitionSetSignature:
    """The set of edge cuts of ``t``, the complete isomorphism invariant."""
    return PartitionSetSignature(t.label_set, [TwoPartition(t.label_set, m) for m in t.cuts])


def tree_from_signature(
    sig: PartitionSetSignature | Iterable[TwoPartition],
    s: LabelSet | None = None,
) -> StableTree:
    """Rebuild the unique stable tree whose edge cuts are ``sig``.

    A plain iterable of 2-partitions is accepted too.  Either is validated;
    ``s`` is only required when it cannot be read off a signature element.
    """
    if not isinstance(sig, PartitionSetSignature):
        parts = tuple(sig)
        if s is None:
            if not parts:
                raise InvariantError("label set required for an empty signature")
            s = parts[0].label_set
        sig = PartitionSetSignature(s, parts)
    elif s is not None and s != sig.label_set:
        raise InvariantError("signature is over a different label set")
    _check_signature(sig.label_set, sig.partitions)
    return StableTree(sig.label_set, [p.part_b_mask for p in sig.partitions])


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
    stay.
    """
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


def exceptional_vertex(t: StableTree) -> int:
    """Index of the unique 4-flag vertex of a one-dimensional stratum tree.

    Defined only for trees with n - 4 edges, where exactly one vertex has
    four flags and every other vertex has three.
    """
    n = t.label_set.n
    if t.codimension != n - 4:
        _require_labels(t.label_set, 4)
        raise InvariantError(
            f"not a curve tree: expected {n - 4} edges, got {t.codimension}"
        )
    vertex_tails, _, _, neighbours = t._layout
    flags = [m.bit_count() + len(adj) for m, adj in zip(vertex_tails, neighbours)]
    quad = [v for v, f in enumerate(flags) if f == 4]
    if len(quad) != 1:
        raise InvariantError("not a curve tree: no unique 4-flag vertex")
    return quad[0]


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
    and each side hangs below the root as :func:`_hanging` says.
    """
    full = (1 << k) - 1
    ways = []
    for b in range(2, full, 2):
        ys = _hanging(b)
        ways += [(full,) + x + y for x in _hanging(full ^ b) for y in ys]
    return tuple(ways)


def _deposit(mask: int) -> list[int]:
    """Local submask -> the same submask in the bits of ``mask``, in numeric order."""
    table = [0]
    for bit in bits_of(mask):
        table += [d | 1 << bit for d in table]
    return table


def _hanging(mask: int) -> tuple[tuple[int, ...], ...]:
    """The ways the labels of ``mask`` hang below an edge, each as its cuts.

    A single label hangs with no cut.  A larger block hangs as
    :func:`_local_hanging` says for its size, moved by :func:`_deposit`, in
    the per-mask recursion's order.  Only the memo build needs this copy.
    """
    if not mask & (mask - 1):
        return ((),)
    table = _deposit(mask)
    return tuple([tuple([table[m] for m in way]) for way in _local_hanging(mask.bit_count())])


def _class_size(shape: Iterable[int]) -> int:
    """Number of curve trees in a class with the given block sizes, by closed formula.

    A block of k labels hangs below the 4-flag vertex as a rooted trivalent
    tree on k tails, of which there are (2k - 3)!!; blocks choose their
    trees independently.
    """
    return math.prod(math.prod(range(1, 2 * k - 2, 2)) for k in shape)


def _curve_trees_in_class(pi: DistinguishedPartition) -> Iterator[StableTree]:
    """Every curve tree whose 4-flag vertex reads off ``pi``, one at a time.

    Each block of 2 or more labels takes its ways from the memo and deposits
    them as the tree is built, in :func:`_hanging` order, with no copy.
    """
    blocks = [m for m in pi.block_masks if m & (m - 1)]
    tables = [_deposit(m) for m in blocks]
    for chosen in product(*[_local_hanging(m.bit_count()) for m in blocks]):
        yield StableTree(pi.label_set, [t[m] for t, way in zip(tables, chosen) for m in way])


class CurveTrees(_LazySequence):
    """The curve trees over a label set, built one at a time as they are read.

    ``classes`` is the lazy stream of :func:`enumerate_distinguished`, and
    trees come grouped by their 4-block partition in its order.  The length
    is the closed-form count, summed over block-size shapes, so it costs no
    class and no tree; indexing and slicing walk the trees up to the
    requested position.  Every iteration starts afresh.
    """

    def __init__(self, classes: Sequence[DistinguishedPartition]):
        self._classes = classes
        counts = _shape_counts(classes.label_set.n)
        self._len = sum(count * _class_size(shape) for shape, count in counts.items())

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[StableTree]:
        produced = 0
        for pi in self._classes:
            for tree in _curve_trees_in_class(pi):
                produced += 1
                yield tree
        _check_internal(produced == self._len, "curve tree count disagrees with its closed form")


def enumerate_curve_trees(s: LabelSet, max_n: int | None = None) -> CurveTrees:
    """All stable trees with n - 4 edges, grouped by their 4-block partition.

    The result is a lazy sequence: it holds the lazy stream of 4-block
    partitions, and builds each class and tree only when iteration reaches
    it.
    """
    return CurveTrees(enumerate_distinguished(s, max_n=max_n))


def enumerate_trees(s: LabelSet, codim: int, max_n: int | None = None) -> list[StableTree]:
    """All stable trees over ``s`` with exactly ``codim`` edges."""
    _require_labels(s, 3)
    _require_bound(s, max_n)
    if codim < 0 or codim > s.n - 3:
        raise InvariantError(f"codimension {codim} out of range 0..{s.n - 3}")
    if codim == 0:
        return [StableTree(s, ())]
    cands = [p.part_b_mask for p in enumerate_stable_two_partitions(s, max_n=max_n)]
    out: list[StableTree] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        if len(chosen) == codim:
            out.append(StableTree(s, chosen))
            return
        need = codim - len(chosen)
        for i in range(start, len(cands) - need + 1):
            c = cands[i]
            if all(_masks_compatible(c, o) for o in chosen):
                chosen.append(c)
                extend(i + 1)
                chosen.pop()

    extend(0)
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
