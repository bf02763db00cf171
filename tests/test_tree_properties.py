"""Property tests of stable trees over random shapes, numberings and orientations.

Random trees grow the way the benchmark's query stream grows them: each
new label splits a drawn flag of a trivalent tree, some edges are then
contracted, and the vertices, tails and edge ends are shuffled.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from stablecurves import (
    LabelSet,
    PartitionSetSignature,
    contract_edge,
    edge_cut,
    forget_and_stabilize,
    make_tree,
    signature,
    tree_from_signature,
)

# Few examples keep the suite fast; derandomized runs keep it repeatable.
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@st.composite
def renumbered(draw, tails, edges):
    """The same raw tree with vertices, tails, edges and edge ends reordered."""
    order = draw(st.permutations(range(len(tails))))
    new = {old: k for k, old in enumerate(order)}
    out_tails = [draw(st.permutations(tails[old])) for old in order]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    out_edges = [(new[b], new[a]) if f else (new[a], new[b]) for (a, b), f in zip(edges, flips)]
    return out_tails, draw(st.permutations(out_edges))


@st.composite
def raw_trees(draw, min_n=4, max_n=9):
    """A label set and a raw stable tree over it, in a random numbering."""
    n = draw(st.integers(min_n, max_n))
    labels = draw(st.permutations(range(1, n + 1)))
    tails = [list(labels[:3])]
    edges: list[tuple[int, int]] = []
    for lab in labels[3:]:
        flags = [(k, None) for k in range(len(edges))]
        flags += [(v, x) for v, ts in enumerate(tails) for x in ts]
        where, tail = draw(st.sampled_from(flags))
        w = len(tails)
        if tail is None:
            u, v = edges[where]
            edges[where] = (u, w)
            edges.append((w, v))
            tails.append([lab])
        else:
            tails[where].remove(tail)
            tails.append([tail, lab])
            edges.append((where, w))
    for _ in range(draw(st.integers(0, len(edges)))):
        u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
        tails[u] += tails[v]
        tails[v] = None
        edges = [(u if a == v else a, u if b == v else b) for a, b in edges]
    alive = [v for v, ts in enumerate(tails) if ts is not None]
    index = {v: k for k, v in enumerate(alive)}
    compact = [(index[a], index[b]) for a, b in edges]
    return (LabelSet.numbered(n), *draw(renumbered([tails[v] for v in alive], compact)))


@PROPERTY
@given(raw_trees(), st.data())
def test_make_tree_is_invariant_under_renumbering(raw, data):
    s, tails, edges = raw
    other_tails, other_edges = data.draw(renumbered(tails, edges))
    assert make_tree(other_tails, other_edges, s) == make_tree(tails, edges, s)


@PROPERTY
@given(raw_trees(min_n=5), st.data())
def test_forgetting_in_two_steps_equals_forgetting_the_union(raw, data):
    s, tails, edges = raw
    t = make_tree(tails, edges, s)
    q = data.draw(st.lists(st.sampled_from(s.labels), unique=True, max_size=s.n - 3))
    split = data.draw(st.integers(0, len(q)))
    stepwise = forget_and_stabilize(forget_and_stabilize(t, q[:split]), q[split:])
    assert stepwise == forget_and_stabilize(t, q)


@PROPERTY
@given(raw_trees(), st.data())
def test_contracting_an_edge_drops_its_cut(raw, data):
    s, tails, edges = raw
    t = make_tree(tails, edges, s)
    assume(t.edges)
    parent, child = data.draw(st.sampled_from(t.edges))
    e = (child, parent) if data.draw(st.booleans()) else (parent, child)
    kept = tuple(p for p in signature(t).partitions if p != edge_cut(t, e))
    contracted = contract_edge(t, e)
    assert signature(contracted).partitions == kept
    assert tree_from_signature(PartitionSetSignature(s, kept)) == contracted


@PROPERTY
@given(raw_trees())
def test_signature_and_derived_layout_round_trip(raw):
    s, tails, edges = raw
    t = make_tree(tails, edges, s)
    assert tree_from_signature(signature(t)) == t
    derived = [t.tails_at(v) for v in range(t.n_vertices)]
    assert make_tree(derived, t.edges, s) == t
