"""Stable dual trees of boundary strata and their combinatorial surgeries.

A stable tree carries the labels as tails on its vertices; every vertex has
at least three flags (tails plus edge ends).  Cutting any edge splits the
labels into a stable 2-partition, and the set of these cuts determines the
tree up to isomorphism.  Internally a tree is rebuilt from its cut family,
which yields one canonical vertex numbering per isomorphism class: vertex 0
holds the smallest label and the rest follow in breadth-first order, each
edge stored as (parent, child).
"""

from __future__ import annotations

import math
from collections import abc, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Sequence

from .partitions import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    _check_internal,
    _low_bit,
    _require_bound,
    _require_labels,
    compatible,
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


@dataclass(frozen=True)
class StableTree:
    """A stable tree in canonical form.

    Instances should be produced by :func:`make_tree`,
    :func:`tree_from_signature` or the enumerators; the constructor does not
    re-canonicalize.  Structural equality then coincides with isomorphism
    over the same label set.
    """

    label_set: LabelSet
    vertex_tails: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_tails)

    @property
    def codimension(self) -> int:
        return len(self.edges)

    def tails_at(self, v: int) -> tuple:
        return self.label_set.labels_of(self.vertex_tails[v])


@dataclass(frozen=True)
class PartitionSetSignature:
    """A set of pairwise compatible, distinct stable 2-partitions.

    Stored sorted in the canonical partition order.  Two stable trees are
    isomorphic exactly when their signatures are equal.
    """

    label_set: LabelSet
    partitions: tuple[TwoPartition, ...]

    @classmethod
    def of(cls, label_set: LabelSet, partitions: Iterable[TwoPartition]) -> "PartitionSetSignature":
        parts = list(partitions)
        for p in parts:
            if p.label_set != label_set:
                raise InvariantError("signature element over a different label set")
        if len(set(parts)) != len(parts):
            raise InvariantError("signature elements must be distinct")
        for x, y in combinations(parts, 2):
            if not compatible(x, y):
                raise InvariantError(
                    f"incompatible set: {x.literal()} crosses {y.literal()}"
                )
        parts.sort(key=partition_sort_key)
        return cls(label_set, tuple(parts))


def _masks_compatible(x: int, y: int) -> bool:
    # Both masks avoid bit 0, so non-crossing reduces to nested or disjoint.
    z = x & y
    return z == 0 or z == x or z == y


def _from_cut_masks(s: LabelSet, masks: Iterable[int]) -> StableTree:
    """Canonical tree from its family of edge cuts.

    Each mask may describe either side of its cut; sides containing the
    smallest label are flipped.  The caller guarantees the family is
    laminar with all parts of size 2 to n - 2.
    """
    full = s.full_mask
    fam: list[int] = []
    seen = set()
    for m in masks:
        norm = m if not m & 1 else full ^ m
        if norm in seen:
            raise InvariantError("duplicate cut in tree description")
        seen.add(norm)
        fam.append(norm)
    # Parent of a cut is its smallest proper superset in the family.
    parent: dict[int, int | None] = {}
    for x in fam:
        best = None
        for y in fam:
            if x != y and x & y == x:
                if best is None or y & best == y:
                    best = y
        parent[x] = best
    kids: dict[int, list[int]] = {x: [] for x in fam}
    top: list[int] = []
    for x in fam:
        p = parent[x]
        if p is None:
            top.append(x)
        else:
            kids[p].append(x)
    top.sort(key=_low_bit)
    for lst in kids.values():
        lst.sort(key=_low_bit)

    covered = 0
    for m in top:
        covered |= m
    vertex_tails = [full & ~covered]
    edges: list[tuple[int, int]] = []
    queue = deque((m, 0) for m in top)
    while queue:
        m, pidx = queue.popleft()
        idx = len(vertex_tails)
        inner = 0
        for c in kids[m]:
            inner |= c
        vertex_tails.append(m & ~inner)
        edges.append((pidx, idx))
        queue.extend((c, idx) for c in kids[m])
    return StableTree(s, tuple(vertex_tails), tuple(edges))


def tree_violations(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> list[str]:
    """Every invariant violated by a raw tree description, as messages.

    An empty list means the description is a valid stable tree.
    """
    problems: list[str] = []
    nv = len(vertex_tails)
    if nv == 0:
        return ["not a tree: no vertices"]

    structural_ok = True
    seen_edges = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2 or not all(isinstance(i, int) for i in pair):
            problems.append(f"not a tree: malformed edge {pair!r}")
            structural_ok = False
            continue
        i, j = pair
        if not (0 <= i < nv and 0 <= j < nv):
            problems.append(f"not a tree: edge ({i}, {j}) names a missing vertex")
            structural_ok = False
            continue
        if i == j:
            problems.append(f"not a tree: self-loop at vertex {i}")
            structural_ok = False
            continue
        key = (min(i, j), max(i, j))
        if key in seen_edges:
            problems.append(f"not a tree: duplicate edge ({i}, {j})")
            structural_ok = False
        seen_edges.add(key)

    if structural_ok:
        if len(edges) != nv - 1:
            problems.append(
                f"not a tree: {nv} vertices need {nv - 1} edges, got {len(edges)}"
            )
        else:
            adj: list[list[int]] = [[] for _ in range(nv)]
            for i, j in (tuple(e) for e in edges):
                adj[i].append(j)
                adj[j].append(i)
            reached = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            if len(reached) != nv:
                problems.append("not a tree: graph is disconnected")

    seen_labels: dict = {}
    tail_counts = [0] * nv
    for v, tails in enumerate(vertex_tails):
        for token in tails:
            if token not in s.labels:
                problems.append(f"label coverage: unknown label {token!r}")
                continue
            if token in seen_labels:
                problems.append(f"label coverage: label {token!r} appears more than once")
            seen_labels[token] = v
            tail_counts[v] += 1
    for token in s.labels:
        if token not in seen_labels:
            problems.append(f"label coverage: missing label {token!r}")

    if structural_ok:
        degree = [0] * nv
        for i, j in (tuple(e) for e in edges):
            degree[i] += 1
            degree[j] += 1
        for v in range(nv):
            flags = degree[v] + tail_counts[v]
            if flags < 3:
                problems.append(f"unstable vertex {v}: only {flags} flags")
    return problems


def make_tree(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> StableTree:
    """Validate a raw description and return the canonical stable tree.

    Raises :class:`InvariantError` listing every violated invariant when the
    description is not a stable tree over ``s``.
    """
    vertex_tails = [tuple(ts) for ts in vertex_tails]
    edges = [tuple(e) for e in edges]
    problems = tree_violations(vertex_tails, edges, s)
    if problems:
        raise InvariantError("; ".join(problems))
    tails = [s.mask_of(ts) for ts in vertex_tails]
    adj: list[list[int]] = [[] for _ in tails]
    for i, j in (tuple(e) for e in edges):
        adj[i].append(j)
        adj[j].append(i)
    cuts = []
    for i, j in (tuple(e) for e in edges):
        cuts.append(_side_mask(tails, adj, j, i))
    return _from_cut_masks(s, cuts)


def _side_mask(tails: Sequence[int], adj: Sequence[Sequence[int]], start: int, banned: int) -> int:
    """Union of tails reachable from ``start`` without passing ``banned``."""
    mask = 0
    stack = [start]
    seen = {start, banned}
    while stack:
        v = stack.pop()
        mask |= tails[v]
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return mask


def _adjacency(t: StableTree) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(t.n_vertices)]
    for i, j in t.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _flag_count(t: StableTree, v: int, adj: Sequence[Sequence[int]]) -> int:
    return t.vertex_tails[v].bit_count() + len(adj[v])


def edge_cut(t: StableTree, e: Sequence[int]) -> TwoPartition:
    """The stable 2-partition obtained by cutting edge ``e`` of ``t``.

    ``e`` is a pair of canonical vertex indices in either order.
    """
    pair = tuple(e)
    if len(pair) != 2:
        raise InvariantError(f"malformed edge {pair!r}")
    i, j = pair
    if (i, j) in t.edges:
        parent, child = i, j
    elif (j, i) in t.edges:
        parent, child = j, i
    else:
        raise InvariantError(f"unknown edge ({i}, {j})")
    adj = _adjacency(t)
    mask = _side_mask(t.vertex_tails, adj, child, parent)
    if mask & 1:
        mask = t.label_set.full_mask ^ mask
    return TwoPartition(t.label_set, mask)


def signature(t: StableTree) -> PartitionSetSignature:
    """The set of edge cuts of ``t``, the complete isomorphism invariant."""
    adj = _adjacency(t)
    full = t.label_set.full_mask
    cuts = []
    for parent, child in t.edges:
        mask = _side_mask(t.vertex_tails, adj, child, parent)
        if mask & 1:
            mask = full ^ mask
        cuts.append(TwoPartition(t.label_set, mask))
    cuts.sort(key=partition_sort_key)
    return PartitionSetSignature(t.label_set, tuple(cuts))


def tree_from_signature(
    sig: PartitionSetSignature | Iterable[TwoPartition],
    s: LabelSet | None = None,
) -> StableTree:
    """Rebuild the unique stable tree whose edge cuts are ``sig``.

    A plain iterable of 2-partitions is accepted and validated; ``s`` is
    only required when it cannot be read off a signature element.
    """
    if isinstance(sig, PartitionSetSignature):
        if s is not None and s != sig.label_set:
            raise InvariantError("signature is over a different label set")
        resolved = sig
    else:
        parts = tuple(sig)
        if s is None:
            if not parts:
                raise InvariantError("label set required for an empty signature")
            s = parts[0].label_set
        resolved = PartitionSetSignature.of(s, parts)
    return _from_cut_masks(resolved.label_set, [p.part_b_mask for p in resolved.partitions])


def contract_edge(t: StableTree, e: Sequence[int]) -> StableTree:
    """The tree with edge ``e`` contracted (its endpoints merged)."""
    cut = edge_cut(t, e)
    masks = [p.part_b_mask for p in signature(t).partitions if p != cut]
    return _from_cut_masks(t.label_set, masks)


def forget_and_stabilize(t: StableTree, q: Iterable) -> StableTree:
    """Remove the labels in ``q`` and restabilize.

    Vertices left with fewer than three flags are repaired: a bare vertex of
    degree two is smoothed away, a degree-one vertex hands any remaining
    tail to its neighbor and disappears.  At least three labels must stay.
    """
    s = t.label_set
    q_mask = s.mask_of(q)
    keep_mask = s.full_mask ^ q_mask
    if keep_mask.bit_count() < 3:
        raise InvariantError("remaining label set too small: need at least 3 labels")

    tails = [m & keep_mask for m in t.vertex_tails]
    adj: list[set[int]] = [set() for _ in range(t.n_vertices)]
    for i, j in t.edges:
        adj[i].add(j)
        adj[j].add(i)
    alive = set(range(t.n_vertices))
    queue = deque(alive)
    while queue:
        v = queue.popleft()
        if v not in alive:
            continue
        deg = len(adj[v])
        flags = deg + tails[v].bit_count()
        if flags >= 3 or deg == 0:
            continue
        if deg == 2 and tails[v] == 0:
            a, b = adj[v]
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
            alive.discard(v)
        elif deg == 1:
            (a,) = adj[v]
            adj[a].discard(v)
            tails[a] |= tails[v]
            alive.discard(v)
            queue.append(a)

    kept_labels = [s.labels[i] for i in range(s.n) if keep_mask >> i & 1]
    new_s = LabelSet(tuple(kept_labels))
    remap = {}
    new_bit = 0
    for i in range(s.n):
        if keep_mask >> i & 1:
            remap[i] = new_bit
            new_bit += 1

    def translate(mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << remap[low.bit_length() - 1]
            m ^= low
        return out

    new_tails = {v: translate(tails[v]) for v in alive}
    live_adj = {v: [w for w in adj[v]] for v in alive}
    cuts = []
    for v in alive:
        for w in live_adj[v]:
            if v < w:
                mask = 0
                stack = [w]
                seen = {w, v}
                while stack:
                    x = stack.pop()
                    mask |= new_tails[x]
                    for y in live_adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                cuts.append(mask)
    return _from_cut_masks(new_s, cuts)


def exceptional_vertex(t: StableTree) -> int:
    """Index of the unique 4-flag vertex of a one-dimensional stratum tree.

    Defined only for trees with n - 4 edges, where exactly one vertex has
    four flags and every other vertex has three.
    """
    n = t.label_set.n
    if t.codimension != n - 4:
        raise InvariantError(
            f"not a curve tree: expected {n - 4} edges, got {t.codimension}"
        )
    adj = _adjacency(t)
    quad = [v for v in range(t.n_vertices) if _flag_count(t, v, adj) == 4]
    if len(quad) != 1:
        raise InvariantError("not a curve tree: no unique 4-flag vertex")
    return quad[0]


def pi_of_tree(t: StableTree) -> DistinguishedPartition:
    """The 4-block partition read off a curve tree at its 4-flag vertex.

    Each tail there contributes a singleton block; each incident edge
    contributes the labels on its far side.
    """
    v0 = exceptional_vertex(t)
    adj = _adjacency(t)
    blocks = [1 << i for i in range(t.label_set.n) if t.vertex_tails[v0] >> i & 1]
    for w in adj[v0]:
        blocks.append(_side_mask(t.vertex_tails, adj, w, v0))
    blocks.sort(key=_low_bit)
    return DistinguishedPartition(t.label_set, tuple(blocks))


@lru_cache(maxsize=None)
def _rooted_binary_families(mask: int) -> tuple[tuple[int, ...], ...]:
    """All internal cut families of rooted trivalent trees with tail set ``mask``.

    Each family lists the label sets hanging below the internal edges; the
    count is the double factorial (2k - 3)!! for k set bits.
    """
    if mask.bit_count() == 2:
        return ((),)
    low = mask & -mask
    rest = mask ^ low
    subs = []
    sub = rest
    while sub:
        subs.append(sub)
        sub = (sub - 1) & rest
    fams: list[tuple[int, ...]] = []
    for b in reversed(subs):
        a = mask ^ b
        fa = _rooted_binary_families(a) if a.bit_count() >= 2 else ((),)
        fb = _rooted_binary_families(b) if b.bit_count() >= 2 else ((),)
        for x in fa:
            xa = ((a,) + x) if a.bit_count() >= 2 else ()
            for y in fb:
                yb = ((b,) + y) if b.bit_count() >= 2 else ()
                fams.append(xa + yb)
    return tuple(fams)


def _class_size(pi: DistinguishedPartition) -> int:
    """Number of curve trees in the class of ``pi``, by closed formula.

    A block of k labels hangs below the 4-flag vertex as a rooted trivalent
    tree on k tails, of which there are (2k - 3)!!; blocks choose their
    trees independently.
    """
    return math.prod(
        math.prod(range(1, 2 * m.bit_count() - 2, 2)) for m in pi.block_masks
    )


def _curve_trees_in_class(pi: DistinguishedPartition) -> Iterator[StableTree]:
    """Every curve tree whose 4-flag vertex reads off ``pi``, one at a time."""
    s = pi.label_set
    options = []
    for block in pi.block_masks:
        if block.bit_count() >= 2:
            options.append([(block,) + fam for fam in _rooted_binary_families(block)])
    for chosen in product(*options):
        yield _from_cut_masks(s, [m for group in chosen for m in group])


class CurveTrees(abc.Sequence):
    """The curve trees over a label set, built one at a time as they are read.

    Trees come grouped by their 4-block partition, classes in the order of
    :func:`enumerate_distinguished`.  The length is the closed-form count,
    so it costs no tree; indexing and slicing walk the trees up to the
    requested position.  Every iteration starts afresh.
    """

    def __init__(self, classes: Sequence[DistinguishedPartition]):
        self._classes = tuple(classes)
        self._len = sum(_class_size(pi) for pi in self._classes)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[StableTree]:
        produced = 0
        for pi in self._classes:
            for tree in _curve_trees_in_class(pi):
                produced += 1
                yield tree
        _check_internal(produced == self._len, "curve tree count disagrees with its closed form")

    def __getitem__(self, index):
        if isinstance(index, slice):
            picked = range(self._len)[index]
            if not picked:
                return []
            if picked.step > 0:
                return list(islice(self, picked.start, picked.stop, picked.step))
            return list(islice(self, picked[-1], picked.start + 1, -picked.step))[::-1]
        i = range(self._len)[index]
        return next(islice(self, i, None))


def enumerate_curve_trees(s: LabelSet, max_n: int | None = None) -> CurveTrees:
    """All stable trees with n - 4 edges, grouped by their 4-block partition.

    The result is a lazy sequence: it holds the 4-block partitions, and
    builds each tree only when iteration reaches it.
    """
    _require_labels(s, 4)
    _require_bound(s, max_n)
    return CurveTrees(enumerate_distinguished(s, max_n=max_n))


def enumerate_trees(s: LabelSet, codim: int, max_n: int | None = None) -> list[StableTree]:
    """All stable trees over ``s`` with exactly ``codim`` edges."""
    _require_labels(s, 3)
    _require_bound(s, max_n)
    if codim < 0 or codim > s.n - 3:
        raise InvariantError(f"codimension {codim} out of range 0..{s.n - 3}")
    if codim == 0:
        return [_from_cut_masks(s, [])]
    cands = [p.part_b_mask for p in enumerate_stable_two_partitions(s, max_n=max_n)]
    out: list[StableTree] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        if len(chosen) == codim:
            out.append(_from_cut_masks(s, chosen))
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


def _centroids(t: StableTree, adj: Sequence[Sequence[int]]) -> list[int]:
    nv = t.n_vertices
    if nv == 1:
        return [0]
    order = []
    parent = [-1] * nv
    stack = [0]
    seen = {0}
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    size = [1] * nv
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    worst = [0] * nv
    for v in range(nv):
        heaviest = nv - size[v]
        for w in adj[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        worst[v] = heaviest
    best = min(worst)
    return [v for v in range(nv) if worst[v] == best]


def unlabeled_type_key(t: StableTree) -> str:
    """Canonical string naming the unlabeled shape of ``t``.

    Vertices carry only their tail counts.  Curve trees are rooted at the
    4-flag vertex; all other trees at the centroid, taking the smaller of
    the two encodings at a bicentroid.
    """
    adj = _adjacency(t)
    if t.codimension == t.label_set.n - 4:
        roots = [exceptional_vertex(t)]
    else:
        roots = _centroids(t, adj)

    def enc(v: int, parent: int) -> str:
        kids = sorted(enc(w, v) for w in adj[v] if w != parent)
        return f"{t.vertex_tails[v].bit_count()}[{','.join(kids)}]"

    return min(enc(r, -1) for r in roots)
