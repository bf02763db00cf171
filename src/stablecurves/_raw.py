"""Raw tree intake: a typed-in description, validated and cut in one walk.

:mod:`stablecurves.trees` re-exports its public names.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._base import InvariantError
from ._tree import StableTree, _edge
from .partitions import LabelSet


def _intake(
    vertex_tails: Sequence[Iterable], edges: Sequence[Sequence[int]], s: LabelSet
) -> tuple[list[str], list[int]]:
    """Every violation of a raw tree description, and the cut of each input edge.

    The cuts are given only when there are no violations, in the caller's
    edge order, each as the union of the tails on the side of its edge
    away from vertex 0, whichever way round the caller wrote the edge.
    """
    try:
        vertex_tails, edges = list(vertex_tails), list(edges)
    except TypeError:
        return [f"not a tree: vertices and edges must be iterable, got {vertex_tails!r} and {edges!r}"], []
    nv = len(vertex_tails)
    if nv == 0:
        return ["not a tree: no vertices"], []

    problems: list[str] = []
    pairs: list[tuple] = []
    adj: list[list[int]] = [[] for _ in range(nv)]
    for e in edges:
        try:
            i, j = _edge(e)
        except InvariantError as err:
            problems.append(f"not a tree: {err}")
            continue
        pairs.append((i, j))
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
        if not hasattr(tails, "__iter__"):
            problems.append(f"not a tree: malformed tails {tails!r} at vertex {v}")
            continue
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
    problems, cuts = _intake(vertex_tails, edges, s)
    if problems:
        raise InvariantError("; ".join(problems))
    return StableTree(s, cuts)
