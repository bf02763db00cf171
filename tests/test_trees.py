"""Stable trees: construction, cuts, signatures, surgeries, enumeration.

The independent oracles here work on the raw vertex/edge descriptions via
plain reachability, never through the canonical bitmask representation.
"""

from __future__ import annotations

import gc
import math
import random
import re
import weakref
from functools import lru_cache
from itertools import combinations, product

import pytest

from stablecurves import (
    DistinguishedPartition,
    InternalCheckError,
    InvariantError,
    LabelSet,
    PartitionSetSignature,
    StableTree,
    TwoPartition,
    compatible,
    contract_edge,
    edge_cut,
    enumerate_curve_trees,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    enumerate_trees,
    exceptional_vertex,
    forget_and_stabilize,
    make_tree,
    n_set,
    pi_of_tree,
    run_census,
    signature,
    tree_from_signature,
    tree_violations,
    unlabeled_type_key,
)
from stablecurves import trees as trees_module
from stablecurves.literals import parse_tree_literal

from _support import as_pair, traced_peak_mib


# ---------------------------------------------------------------- oracles


def cuts_by_reachability(vertex_tails, edges):
    """All edge cuts of a raw description, as frozenset pairs of labels."""
    nv = len(vertex_tails)
    cuts = set()
    for skip in edges:
        side = set()
        stack = [skip[1]]
        seen = {skip[0], skip[1]}
        while stack:
            v = stack.pop()
            side.update(vertex_tails[v])
            for a, b in edges:
                if (a, b) == tuple(skip):
                    continue
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in seen:
                        seen.add(y)
                        stack.append(y)
        rest = set()
        for v in range(nv):
            rest.update(vertex_tails[v])
        rest -= side
        cuts.add(frozenset((frozenset(side), frozenset(rest))))
    return cuts


def canonical_order(vertex_tails, edges):
    """The raw vertices in the documented numbering, found by plain search.

    Vertex 0 holds the smallest label; the others follow breadth-first,
    the children of a vertex in order of the smallest label below them.
    Returns the raw vertex at each canonical index, and the canonical
    (parent, child) edges.
    """
    adj = {v: [] for v in range(len(vertex_tails))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def smallest_below(v, parent):
        return min([*vertex_tails[v], *(smallest_below(w, v) for w in adj[v] if w != parent)])

    first = min(x for ts in vertex_tails for x in ts)
    root = next(v for v, ts in enumerate(vertex_tails) if first in ts)
    order, out_edges, queue = [root], [], [(root, -1)]
    for v, parent in queue:
        kids = sorted((w for w in adj[v] if w != parent), key=lambda w: smallest_below(w, v))
        for w in kids:
            out_edges.append((order.index(v), len(order)))
            order.append(w)
            queue.append((w, v))
    return order, out_edges


def canonical_layout(vertex_tails, edges):
    """The sorted tails and the edges of a raw description in the documented numbering."""
    order, out_edges = canonical_order(vertex_tails, edges)
    return [tuple(sorted(vertex_tails[v])) for v in order], out_edges


def labels_beyond(vertex_tails, edges, v, w):
    """Labels reachable from ``w`` without passing through ``v``."""
    seen, stack, labels = {v, w}, [w], set()
    while stack:
        x = stack.pop()
        labels.update(vertex_tails[x])
        for a, b in edges:
            for y, z in ((a, b), (b, a)):
                if y == x and z not in seen:
                    seen.add(z)
                    stack.append(z)
    return frozenset(labels)


def shuffled_descriptions(n, rng):
    """Every stable tree over n labels as a raw description in a random form.

    Vertices and the tails at each are shuffled, and so is the edge list,
    each edge written in a random orientation.
    """
    s = LabelSet.numbered(n)
    for codim in range(n - 2):
        for t in enumerate_trees(s, codim):
            order = list(range(t.n_vertices))
            rng.shuffle(order)
            tails = [rng.sample(t.tails_at(v), len(t.tails_at(v))) for v in order]
            edges = [(order.index(i), order.index(j)) for i, j in t.edges]
            edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
            rng.shuffle(edges)
            yield tails, edges


def forget_by_vertex_surgery(vertex_tails, edges, q):
    """Forget oracle on a raw description: drop labels, repair vertices, rebuild.

    A vertex left with fewer than three flags either hangs off one edge,
    and hands its tails to its neighbor, or is a bare vertex of degree
    two, and is smoothed away.
    """
    dropped = set(q)
    tails = {v: [x for x in ts if x not in dropped] for v, ts in enumerate(vertex_tails)}
    adj = {v: set() for v in tails}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    repaired = True
    while repaired:
        repaired = False
        for v in list(tails):
            if len(adj[v]) + len(tails[v]) >= 3:
                continue
            if len(adj[v]) == 1:
                (w,) = adj[v]
                tails[w] += tails[v]
                adj[w].discard(v)
            else:
                a, b = adj[v]
                adj[a].discard(v)
                adj[a].add(b)
                adj[b].discard(v)
                adj[b].add(a)
            del tails[v], adj[v]
            repaired = True
    order = sorted(tails)
    index = {v: k for k, v in enumerate(order)}
    edges = [(index[v], index[w]) for v in order for w in adj[v] if v < w]
    kept = LabelSet(x for v in order for x in tails[v])
    return make_tree([tails[v] for v in order], edges, kept)


# ------------------------------------------------------------ make_tree


def test_make_tree_star():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2, 3, 4, 5]], [], s)
    assert t.n_vertices == 1
    assert t.codimension == 0
    assert t.tails_at(0) == (1, 2, 3, 4, 5)
    for v in (-1, 1):
        with pytest.raises(InvariantError, match=f"^vertex {v} out of range 0..0$"):
            t.tails_at(v)
    for v in (1.0, True):
        with pytest.raises(InvariantError, match=f"^vertex must be an integer, got {v}$"):
            t.tails_at(v)


def test_make_tree_divisor_graph():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    assert t.codimension == 1
    assert set(t.tails_at(0)) == {1, 2}
    assert set(t.tails_at(1)) == {3, 4, 5}


def test_make_tree_is_canonical_under_relabeling_of_vertices():
    s = LabelSet.numbered(6)
    a = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)
    b = make_tree([[5, 6], [3, 4], [1, 2]], [(2, 1), (1, 0)], s)
    assert a == b


def test_make_tree_numbers_vertices_breadth_first_from_the_smallest_label():
    rng = random.Random(7)
    for n in (4, 5, 6, 7):
        s = LabelSet.numbered(n)
        for codim in range(0, n - 2):
            for t in enumerate_trees(s, codim):
                order = list(range(t.n_vertices))
                rng.shuffle(order)
                tails = [t.tails_at(v) for v in order]
                edges = [(order.index(i), order.index(j)) for i, j in t.edges]
                got = make_tree(tails, edges, s)
                derived = [got.tails_at(v) for v in range(got.n_vertices)]
                assert (derived, list(got.edges)) == canonical_layout(tails, edges)


def test_to_object_lists_tails_and_edges_in_the_canonical_numbering():
    t = make_tree([[5, 6], [3, 4], [1, 2]], [(2, 1), (1, 0)], LabelSet.numbered(6))
    assert t.to_object() == {"vertices": [[1, 2], [3, 4], [5, 6]], "edges": [[0, 1], [1, 2]]}
    t = make_tree([["a", "b"], ["c", "d"], ["e", "f"]], [(0, 1), (1, 2)], LabelSet("abcdef"))
    assert forget_and_stabilize(t, ["c", "d"]).to_object() == {
        "vertices": [["a", "b"], ["e", "f"]],
        "edges": [[0, 1]],
    }


def test_make_tree_rejects_unstable_vertex():
    s = LabelSet.numbered(5)
    with pytest.raises(InvariantError, match="unstable vertex"):
        make_tree([[1], [2, 3, 4, 5]], [(0, 1)], s)


def test_make_tree_rejects_bad_label_coverage():
    s = LabelSet.numbered(5)
    with pytest.raises(InvariantError, match="missing label"):
        make_tree([[1, 2, 3, 4]], [], s)
    with pytest.raises(InvariantError, match="more than once"):
        make_tree([[1, 2, 3], [3, 4, 5]], [(0, 1)], s)
    with pytest.raises(InvariantError, match="unknown label"):
        make_tree([[1, 2, 3, 4, 5, 9]], [], s)


def test_make_tree_rejects_non_trees():
    s = LabelSet.numbered(6)
    with pytest.raises(InvariantError, match="not a tree"):
        make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1)], s)
    with pytest.raises(InvariantError, match="disconnected"):
        make_tree(
            [[1, 2, 3], [4], [5], [6]],
            [(1, 2), (2, 3), (3, 1)],
            s,
        )
    with pytest.raises(InvariantError, match="duplicate edge"):
        make_tree([[1, 2], [3, 4, 5, 6]], [(0, 1), (1, 0)], s)
    with pytest.raises(InvariantError, match="self-loop"):
        make_tree([[1, 2], [3, 4, 5, 6]], [(0, 0)], s)
    with pytest.raises(InvariantError, match="missing vertex"):
        make_tree([[1, 2], [3, 4, 5, 6]], [(0, 7)], s)


def test_tree_violations_lists_everything_at_once():
    s = LabelSet.numbered(5)
    problems = tree_violations([[1], [2, 3, 4]], [(0, 1)], s)
    text = "; ".join(problems)
    assert "unstable vertex 0" in text
    assert "missing label 5" in text


def test_tree_violations_are_listed_whole_and_in_order():
    literals = {
        # Tails are counted per occurrence: vertex 2 has its three flags.
        "[1,2];[3];[4,4]/0-1,1-2": ["label coverage: label 4 appears more than once"],
        "[1,1];[2];[3]/0-1,1-2": [
            "label coverage: label 1 appears more than once",
            "unstable vertex 2: only 2 flags",
        ],
        "[1,2];[3,4];[5,6]/0-1": [
            "not a tree: 3 vertices need 2 edges, got 1",
            "unstable vertex 2: only 2 flags",
        ],
        "[1,2,3];[4];[5];[6]/1-2,2-3,3-1": ["not a tree: graph is disconnected"],
        # An edge problem stops the walk, so no vertex is judged unstable.
        "[1,2];[3,4,5];[6,6]/0-0,0-3,1-0,0-1": [
            "not a tree: self-loop at vertex 0",
            "not a tree: edge (0, 3) names a missing vertex",
            "not a tree: duplicate edge (0, 1)",
            "label coverage: label 6 appears more than once",
        ],
    }
    for text, expected in literals.items():
        assert tree_violations(*parse_tree_literal(text)) == expected, text
    s = LabelSet.numbered(5)
    edges = [(0, 1), ("a", 1), (0, 1, 2), (False, True), None]
    assert tree_violations([[1, 9], [2, 3, 4]], edges, s) == [
        "not a tree: malformed edge ('a', 1)",
        "not a tree: malformed edge (0, 1, 2)",
        "not a tree: malformed edge (False, True)",
        "not a tree: malformed edge None",
        "label coverage: unknown label 9",
        "label coverage: missing label 5",
    ]
    assert tree_violations([], [], s) == ["not a tree: no vertices"]
    # A vertex that is no collection of labels is malformed, and judged with the rest.
    assert tree_violations([[1, 2, 3], 5], [(0, 1)], s) == [
        "not a tree: malformed tails 5 at vertex 1",
        "label coverage: missing label 4",
        "label coverage: missing label 5",
        "unstable vertex 1: only 1 flags",
    ]
    for tails, edges in ((None, []), ([[1, 2, 3, 4, 5]], None)):
        expected = f"not a tree: vertices and edges must be iterable, got {tails!r} and {edges!r}"
        assert tree_violations(tails, edges, s) == [expected]
        with pytest.raises(InvariantError, match=f"^{re.escape(expected)}$"):
            make_tree(tails, edges, s)


def test_make_tree_accepts_one_shot_iterables():
    s = LabelSet.numbered(6)
    t = make_tree(
        (iter(ts) for ts in [[5, 6], [3, 4], [1, 2]]), (iter(e) for e in [(2, 1), (1, 0)]), s
    )
    assert t == make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)


# ------------------------------------------------------ cuts, signature


def test_edge_cut_two_vertex_graph():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    cut = edge_cut(t, t.edges[0])
    assert as_pair(cut) == frozenset((frozenset({1, 2}), frozenset({3, 4, 5})))


def test_edge_cut_chain_both_edges():
    s = LabelSet.numbered(6)
    t = make_tree([[1, 2, 3], [4], [5, 6]], [(0, 1), (1, 2)], s)
    cuts = [edge_cut(t, e) for e in t.edges]
    sizes = sorted(tuple(sorted(c.sizes)) for c in cuts)
    assert sizes == [(2, 4), (3, 3)]
    assert cuts[0] != cuts[1]
    assert compatible(cuts[0], cuts[1])


def test_edge_cut_unknown_edge():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    with pytest.raises(InvariantError, match="unknown edge"):
        edge_cut(t, (0, 2))


def test_edge_cut_names_non_integer_ends_malformed():
    # "01" unpacks to the ends "0" and "1", which are not vertex indices,
    # though (0, 1) is a real edge of the tree; nor are False and True.
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    for e in ("01", (0, "1"), (0.0, 1), (False, True), (0, True)):
        with pytest.raises(InvariantError, match=re.escape(f"malformed edge {tuple(e)!r}")):
            edge_cut(t, e)
    with pytest.raises(InvariantError, match=re.escape("malformed edge None")):
        edge_cut(t, None)
    with pytest.raises(InvariantError, match=re.escape("malformed edge ('0', '1')")):
        contract_edge(t, "01")
    with pytest.raises(InvariantError, match=re.escape("malformed edge (False, True)")):
        contract_edge(t, (False, True))


def test_edge_cut_looks_up_only_real_edges():
    # Canonical trees from shuffled raw descriptions: a real edge, named
    # either way round, cuts off what reachability on the raw input finds;
    # every other pair of indices is refused.
    rng = random.Random(5)
    for n in range(3, 7):
        for tails, edges in shuffled_descriptions(n, rng):
            t = make_tree(tails, edges, LabelSet.numbered(n))
            order, _ = canonical_order(tails, edges)
            raw_edges = {frozenset(e) for e in edges}
            nv = t.n_vertices
            for i, j in product(range(-1, nv + 1), repeat=2):
                if 0 <= i < nv and 0 <= j < nv and frozenset((order[i], order[j])) in raw_edges:
                    side = labels_beyond(tails, edges, order[i], order[j])
                    rest = frozenset(t.label_set.labels) - side
                    assert as_pair(edge_cut(t, (i, j))) == frozenset((side, rest))
                else:
                    with pytest.raises(InvariantError, match=f"unknown edge \\({i}, {j}\\)"):
                        edge_cut(t, (i, j))
            with pytest.raises(InvariantError, match=re.escape("malformed edge ('a', 0)")):
                edge_cut(t, ("a", 0))
            with pytest.raises(InvariantError, match="malformed edge"):
                edge_cut(t, (0, 1, 2))


def test_signature_matches_reachability_oracle():
    s = LabelSet.numbered(7)
    descriptions = [
        ([[1, 2, 3], [4], [5], [6, 7]], [(0, 1), (1, 2), (2, 3)]),
        ([[1, 2], [3], [4, 5], [6, 7]], [(0, 1), (1, 2), (1, 3)]),
        ([[1, 2, 3, 4], [5, 6, 7]], [(0, 1)]),
        # Vertex 0 without label 1, and edges written both ways round.
        ([[4], [1, 2, 3], [5], [6, 7]], [(1, 0), (0, 2), (3, 2)]),
        ([[4, 5], [1, 2], [3], [6, 7]], [(1, 2), (2, 0), (3, 2)]),
        ([[], [6, 7], [1, 2], [3, 4, 5]], [(1, 0), (0, 2), (3, 0)]),
        ([[6, 7], [5], [4], [1, 2, 3]], [(1, 0), (1, 2), (3, 2)]),
        ([[5, 6, 7], [1, 2, 3, 4]], [(1, 0)]),
    ]
    for tails, edges in descriptions:
        t = make_tree(tails, edges, s)
        got = {as_pair(p) for p in signature(t).partitions}
        assert got == cuts_by_reachability(tails, edges)


def test_signature_star_is_empty():
    s = LabelSet.numbered(4)
    t = make_tree([[1, 2, 3, 4]], [], s)
    assert signature(t).partitions == ()


def test_signature_size_equals_codimension():
    s = LabelSet.numbered(6)
    for codim in range(4):
        for t in enumerate_trees(s, codim):
            assert len(signature(t).partitions) == codim


# ------------------------------------------------- signature -> tree


def test_tree_from_signature_chain():
    s = LabelSet.numbered(6)
    parts = [TwoPartition.of(s, [4, 5, 6]), TwoPartition.of(s, [5, 6])]
    t = tree_from_signature(PartitionSetSignature(s, parts))
    assert t.n_vertices == 3
    assert tree_from_signature(PartitionSetSignature(s, reversed(parts))) == t
    assert t.cuts == (48, 56)
    middle = [v for v in range(3) if len(t.tails_at(v)) == 1]
    assert [t.tails_at(v) for v in middle] == [(4,)]


def test_tree_from_signature_empty_is_star():
    s = LabelSet.numbered(5)
    t = tree_from_signature(PartitionSetSignature(s, []))
    assert t.n_vertices == 1
    assert t.codimension == 0


def test_constructors_canonicalise_shuffled_cuts_given_by_either_side():
    # Nested cuts {3,4,5} and {3,4} given high first: the tree of make_tree.
    s6 = LabelSet.numbered(6)
    nested = make_tree([[1, 2, 6], [5], [3, 4]], [(0, 1), (1, 2)], s6)
    assert StableTree(s6, (28, 12)) == nested
    assert StableTree(s6, (28, 12)).vertex_tails == nested.vertex_tails == (35, 16, 12)
    rng = random.Random(11)
    for n in range(4, 8):
        s = LabelSet.numbered(n)
        for codim in range(n - 2):
            for t in enumerate_trees(s, codim):
                cuts = [m ^ s.full_mask if rng.random() < 0.5 else m for m in t.cuts]
                rng.shuffle(cuts)
                built = StableTree(s, cuts)
                assert built == t
                assert (built.vertex_tails, built.edges) == (t.vertex_tails, t.edges)
                sig = signature(t)
                parts = list(sig.partitions)
                rng.shuffle(parts)
                assert PartitionSetSignature(s, parts) == sig


def test_constructor_keeps_a_repeated_cut_once():
    # {3,4} as 12, or by its other side 51: a repeat must not become an edge.
    s = LabelSet.numbered(6)
    single = StableTree(s, (12,))
    for cuts in [(12, 12), (12, 51), (51, 12, 12)]:
        built = StableTree(s, cuts)
        assert built == single
        assert built.cuts == (12,)
        assert (built.vertex_tails, built.edges) == (single.vertex_tails, single.edges)
    with pytest.raises(InvariantError, match=r"^cuts must be integer masks, got \[1\.5\]$"):
        StableTree(LabelSet.numbered(5), [1.5])
    # No side of a cut may be empty or reach past the labels, either way round.
    for cuts in ([-1], [0], [64], [68]):
        message = rf"^cuts must be proper nonempty subsets of the 6 labels, got \[{cuts[0]}\]$"
        with pytest.raises(InvariantError, match=message):
            StableTree(s, cuts)


def test_tree_from_signature_rejects_crossing():
    s = LabelSet.numbered(6)
    sig = PartitionSetSignature(s, [TwoPartition.of(s, [2, 3]), TwoPartition.of(s, [3, 4])])
    with pytest.raises(InvariantError, match="incompatible set"):
        tree_from_signature(sig)


def test_every_shape_reading_refuses_a_cut_family_that_is_not_a_stable_tree():
    # Built straight from the constructor, which checks only that each mask
    # is in range: two crossing pairs, a cut off one label on either side,
    # and a star on two labels.  The layout refuses each, so every reading
    # of the shape does, as do signature and forget_and_stabilize, which
    # read the layout first; the curve-tree readings may refuse the edge
    # count first.
    s6 = LabelSet.numbered(6)
    families = {
        (s6, (6, 12)): "^incompatible set: cuts 6 and 12 cross$",
        (s6, (12, 24)): "^incompatible set: cuts 12 and 24 cross$",
        (s6, (2,)): "^unstable vertex 1: only 2 flags$",
        (s6, (62,)): "^unstable vertex 0: only 2 flags$",
        (LabelSet.numbered(2), ()): "^unstable vertex 0: only 2 flags$",
    }
    layout_readings = [
        lambda t: t.vertex_tails,
        lambda t: t.edges,
        lambda t: t.tails_at(0),
        StableTree.to_object,
        lambda t: edge_cut(t, (0, 1)),
        lambda t: contract_edge(t, (0, 1)),
        unlabeled_type_key,
        signature,
        lambda t: forget_and_stabilize(t, []),
    ]
    for (s, cuts), message in families.items():
        for reading in layout_readings:
            with pytest.raises(InvariantError, match=message):
                reading(StableTree(s, cuts))
        for reading in (exceptional_vertex, pi_of_tree):
            with pytest.raises(InvariantError):
                reading(StableTree(s, cuts))
    # A signature reads its layout once, so it refuses at the call.
    sig = PartitionSetSignature(s6, [TwoPartition(s6, 6), TwoPartition(s6, 12)])
    with pytest.raises(InvariantError, match="^incompatible set: cuts 6 and 12 cross$"):
        tree_from_signature(sig)


def test_tree_from_signature_rejects_duplicates():
    s = LabelSet.numbered(6)
    sigma = TwoPartition.of(s, [2, 3])
    with pytest.raises(InvariantError, match="distinct"):
        tree_from_signature(PartitionSetSignature(s, [sigma, sigma]))


def test_tree_from_signature_checks_a_constructed_signature():
    s = LabelSet.numbered(6)
    a, b = TwoPartition(s, 0b000110), TwoPartition(s, 0b001100)  # cuts {2,3} and {3,4}
    cases = {
        "incompatible set": (a, b),
        "distinct": (a, a),
        "different label set": (a, TwoPartition(LabelSet.numbered(7), 0b0110000)),
    }
    for message, parts in cases.items():
        with pytest.raises(InvariantError, match=message):
            tree_from_signature(PartitionSetSignature(s, parts))
    # The constructor puts the partitions in the canonical order itself.
    ordered = PartitionSetSignature(s, (a, TwoPartition(s, 0b110000)))
    given_high_first = PartitionSetSignature(s, (TwoPartition(s, 0b110000), a))
    assert given_high_first == ordered
    assert given_high_first.partitions == (a, TwoPartition(s, 0b110000))
    assert tree_from_signature(ordered) == tree_from_signature(
        PartitionSetSignature(s, reversed(ordered.partitions))
    )


def test_signature_refuses_elements_that_are_not_two_partitions():
    # The constructor's sort is the check: it reads each element's mask.
    s = LabelSet.numbered(6)
    for parts, shown in [
        ([1, 2], "[1, 2]"),
        (["12|3456"], "['12|3456']"),
        ([TwoPartition.of(s, [1, 2]), None], f"[{TwoPartition.of(s, [1, 2])!r}, None]"),
        (None, "None"),
    ]:
        with pytest.raises(InvariantError, match=f"^partitions must be 2-partitions, got {re.escape(shown)}$"):
            PartitionSetSignature(s, parts)


def test_signature_roundtrip_all_trees_small():
    for n in (4, 5, 6):
        s = LabelSet.numbered(n)
        for codim in range(0, n - 2):
            for t in enumerate_trees(s, codim):
                sig = signature(t)
                assert tree_from_signature(sig) == t


# ------------------------------------------------------------ contract


def test_contract_single_edge_gives_star():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    star = contract_edge(t, t.edges[0])
    assert star.n_vertices == 1


def test_contract_removes_exactly_that_cut():
    s = LabelSet.numbered(6)
    for t in enumerate_trees(s, 3):
        full = set(signature(t).partitions)
        for e in t.edges:
            cut = edge_cut(t, e)
            smaller = contract_edge(t, e)
            assert set(signature(smaller).partitions) == full - {cut}


def test_contract_chain_merges_middle():
    s = LabelSet.numbered(6)
    t = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)
    e = [e for e in t.edges if 0 in e][0]
    merged = contract_edge(t, e)
    assert merged.n_vertices == 2
    tails = {frozenset(merged.tails_at(v)) for v in range(2)}
    assert frozenset({1, 2, 3, 4}) in tails or frozenset({1, 2, 5, 6}) in tails


# -------------------------------------------------------------- forget


def test_forget_drops_middle_tails_and_smooths():
    s = LabelSet.numbered(6)
    t = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)
    got = forget_and_stabilize(t, [3, 4])
    expect = make_tree([[1, 2], [5, 6]], [(0, 1)], LabelSet([1, 2, 5, 6]))
    assert got == expect


def test_forget_migrates_last_tail():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    got = forget_and_stabilize(t, [1])
    assert got.n_vertices == 1
    assert got.tails_at(0) == (2, 3, 4, 5)


def test_forget_nothing_is_identity():
    s = LabelSet.numbered(6)
    for t in enumerate_trees(s, 2):
        assert forget_and_stabilize(t, []) == t


def test_forget_rejects_too_small_remainder():
    s = LabelSet.numbered(5)
    t = make_tree([[1, 2], [3, 4, 5]], [(0, 1)], s)
    with pytest.raises(InvariantError, match="too small"):
        forget_and_stabilize(t, [1, 2, 3])


def test_forget_matches_vertex_surgery_oracle():
    for n, largest_q in ((3, 0), (4, 1), (5, 2), (6, 3), (7, 2)):
        s = LabelSet.numbered(n)
        forget_sets = [
            q for size in range(largest_q + 1) for q in combinations(s.labels, size)
        ]
        for codim in range(0, n - 2):
            for t in enumerate_trees(s, codim):
                tails = [t.tails_at(v) for v in range(t.n_vertices)]
                for q in forget_sets:
                    expect = forget_by_vertex_surgery(tails, t.edges, q)
                    assert forget_and_stabilize(t, q) == expect, (tails, t.edges, q)


def test_forget_order_independent_on_pairs():
    s = LabelSet.numbered(6)
    for t in enumerate_trees(s, 2):
        for q1, q2 in combinations(s.labels, 2):
            joint = forget_and_stabilize(t, [q1, q2])
            assert joint == forget_and_stabilize(forget_and_stabilize(t, [q1]), [q2])
            assert joint == forget_and_stabilize(forget_and_stabilize(t, [q2]), [q1])


# --------------------------------------------- curve trees and classes


def test_exceptional_vertex_examples():
    s = LabelSet.numbered(6)
    chain = make_tree([[1, 2, 3], [4], [5, 6]], [(0, 1), (1, 2)], s)
    v0 = exceptional_vertex(chain)
    assert set(chain.tails_at(v0)) == {1, 2, 3}
    balanced = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)
    v0 = exceptional_vertex(balanced)
    assert len(balanced.tails_at(v0)) == 2
    star4 = make_tree([[1, 2, 3, 4]], [], LabelSet.numbered(4))
    assert exceptional_vertex(star4) == 0


def test_exceptional_vertex_rejects_wrong_codimension():
    s = LabelSet.numbered(5)
    star = make_tree([[1, 2, 3, 4, 5]], [], s)
    with pytest.raises(InvariantError, match="not a curve tree"):
        exceptional_vertex(star)
    # Below 4 labels no tree has n - 4 edges; the refusal names the label count.
    tripod = make_tree([[1, 2, 3]], [], LabelSet.numbered(3))
    for reading in (exceptional_vertex, pi_of_tree):
        with pytest.raises(InvariantError, match="^operation needs at least 4 labels, got 3$"):
            reading(tripod)


def test_curve_tree_readings_refuse_crossing_cuts():
    # Built straight from the constructor, past the intake: the cuts {3, 4}
    # and {4, 5} cross, so the derived layout refuses them.
    t = StableTree(LabelSet.numbered(6), (12, 24))
    for reading in (exceptional_vertex, pi_of_tree):
        with pytest.raises(InvariantError, match="^incompatible set: cuts 12 and 24 cross$"):
            reading(t)


def test_curve_tree_readings_match_the_raw_description():
    # The 4-flag vertex and the blocks around it, found on shuffled raw
    # input by counting flags and by plain reachability.
    rng = random.Random(9)
    for n in (5, 6, 7):
        for tails, edges in shuffled_descriptions(n, rng):
            if len(edges) != n - 4:
                continue
            t = make_tree(tails, edges, LabelSet.numbered(n))
            order, _ = canonical_order(tails, edges)
            degree = [sum(v in e for e in edges) for v in range(len(tails))]
            (quad,) = [v for v, ts in enumerate(tails) if len(ts) + degree[v] == 4]
            assert exceptional_vertex(t) == order.index(quad)
            blocks = {frozenset([x]) for x in tails[quad]}
            for a, b in edges:
                if quad in (a, b):
                    blocks.add(labels_beyond(tails, edges, quad, b if a == quad else a))
            assert {frozenset(b) for b in pi_of_tree(t).blocks} == blocks


def test_pi_of_tree_examples():
    s = LabelSet(["a", "b", "c", "d", "e", "f"])
    chain = make_tree([["a", "b", "c"], ["d"], ["e", "f"]], [(0, 1), (1, 2)], s)
    pi = pi_of_tree(chain)
    assert pi.blocks == (("a",), ("b",), ("c",), ("d", "e", "f"))
    s6 = LabelSet.numbered(6)
    balanced = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s6)
    assert pi_of_tree(balanced).shape == (2, 2, 1, 1)


def test_pi_blocks_read_off_disassembly():
    s = LabelSet.numbered(7)
    t = make_tree([[1, 2], [3], [4, 5], [6, 7]], [(0, 1), (1, 2), (1, 3)], s)
    pi = pi_of_tree(t)
    assert pi.blocks == ((1, 2), (3,), (4, 5), (6, 7))


@lru_cache(maxsize=None)
def families_by_mask(mask):
    """Rooted trivalent cut families on the tails of ``mask``, one memo entry per mask.

    The root splits ``mask`` into the side holding its lowest bit and the
    rest, taken as submasks in ascending order; each family lists the
    two sides (those of at least two tails) and their own families.
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
    fams = []
    for b in reversed(subs):
        a = mask ^ b
        fa = families_by_mask(a) if a.bit_count() >= 2 else ((),)
        fb = families_by_mask(b) if b.bit_count() >= 2 else ((),)
        for x in fa:
            xa = ((a,) + x) if a.bit_count() >= 2 else ()
            for y in fb:
                yb = ((b,) + y) if b.bit_count() >= 2 else ()
                fams.append(xa + yb)
    return tuple(fams)


def test_rooted_binary_families_match_the_per_mask_recursion():
    # Every block of 2 to 7 labels over 9 labels: all a census meets up to
    # n = 10.  Blocks of 8 and 9 labels hold 135,135 and 2,027,025 families,
    # too many to keep twice in a unit test.
    for mask in range(1 << 9):
        if 2 <= mask.bit_count() <= 7:
            ways = [tuple(way) for way in trees_module._hang([mask])]
            assert ways == [(mask,) + f for f in families_by_mask(mask)]


def test_the_family_memo_hangs_each_side_once_per_split(monkeypatch):
    # Size k splits its tails 2**(k-1) - 1 ways at the root and hangs the
    # two sides together once per split: 247 calls fill k <= 8, where
    # hanging the second side again for every way of the first made 105,536.
    hang = trees_module._hang
    calls = []
    monkeypatch.setattr(trees_module, "_hang", lambda masks: calls.append(masks) or hang(masks))
    memo = trees_module._local_hanging
    memo.cache_clear()
    try:
        for k in range(2, 9):
            before = len(calls)
            memo(k)
            assert len(calls) - before == 2 ** (k - 1) - 1
    finally:
        memo.cache_clear()
    assert len(calls) == 247


def test_family_memo_holds_one_entry_per_block_size():
    memo = trees_module._local_hanging
    memo.cache_clear()
    run_census(LabelSet.numbered(8))
    assert memo.cache_info().currsize <= 8 - 3


def test_a_class_walk_holds_no_copy_of_the_memo():
    # The walk deposits each memo way onto the block's bits as it builds a
    # tree: the deposit tables and one tree peak at about 0.006 MiB.
    trees_module._local_hanging(7)
    s = LabelSet.numbered(10)
    pi = DistinguishedPartition(s, (1, 2, 4, s.full_mask ^ 7))
    walked = []
    peak = traced_peak_mib(lambda: walked.append(sum(1 for _ in trees_module._curve_trees_in_class(pi))))
    assert walked == [10_395]
    assert peak < 0.1


def test_enumerated_trees_are_freed_by_reference_counting():
    # The walk holds no closure: as a self-referencing closure over the
    # output list it held all 190,575 trees at n = 9, codim 4 (about
    # 33 MiB) in a cycle until a full collection.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = enumerate_trees(LabelSet.numbered(7), 2)
        first = weakref.ref(out[0])
        del out
        assert first() is None
    finally:
        if was_enabled:
            gc.enable()


def eager_curve_trees(s):
    """Every curve tree as one list: per class, the product of block families."""
    out = []
    for pi in enumerate_distinguished(s):
        options = [
            [(block,) + fam for fam in families_by_mask(block)]
            for block in pi.block_masks
            if block.bit_count() >= 2
        ]
        for chosen in product(*options):
            masks = [m for group in chosen for m in group]
            out.append(StableTree(s, masks))
    return out


def trees_by_clique_search(s, codim):
    """Every stable tree with ``codim`` edges, as a clique of compatible 2-partitions.

    Each chosen set grows only by rows after its last, so each comes once.
    """
    rows = enumerate_stable_two_partitions(s) if codim else []
    out = []

    def extend(chosen, start):
        if len(chosen) == codim:
            out.append(StableTree(s, [p.part_b_mask for p in chosen]))
            return
        for i in range(start, len(rows) - (codim - len(chosen)) + 1):
            if all(compatible(rows[i], p) for p in chosen):
                extend(chosen + [rows[i]], i + 1)

    extend([], 0)
    return out


def test_curve_trees_iterate_to_their_closed_form_count():
    for n in range(4, 9):
        s = LabelSet.numbered(n)
        curves = enumerate_curve_trees(s)
        walked = list(curves)
        assert len(walked) == len(curves)
        assert len(curves) == len(enumerate_trees(s, n - 4))
        assert len(set(walked)) == len(walked)
        assert walked == eager_curve_trees(s)
        assert list(curves) == walked  # a second pass starts afresh


def test_curve_trees_validate_at_call_time():
    with pytest.raises(InvariantError):
        enumerate_curve_trees(LabelSet.numbered(3))
    # Contracting one of the n - 3 edges of a trivalent tree, of which there
    # are (2n - 5)!!, gives each curve tree three times.  Building walks
    # nothing, so no enumeration bound applies; n = 18 is the last count
    # len() can return, and past it the refusal quotes the count.
    count = {n: (n - 3) * math.prod(range(1, 2 * n - 4, 2)) // 3 for n in (17, 18, 19)}
    assert len(enumerate_curve_trees(LabelSet.numbered(17))) == count[17]
    assert len(enumerate_curve_trees(LabelSet.numbered(18))) == count[18]
    with pytest.raises(InvariantError, match=f"holds {count[19]} items"):
        len(enumerate_curve_trees(LabelSet.numbered(19)))


def test_curve_trees_check_their_count(monkeypatch):
    curves = enumerate_curve_trees(LabelSet.numbered(6))
    real = trees_module._curve_trees_in_class

    def one_short(pi):
        return list(real(pi))[1:]

    monkeypatch.setattr(trees_module, "_curve_trees_in_class", one_short)
    with pytest.raises(InternalCheckError, match="closed form"):
        list(curves)


def test_curve_trees_have_one_quadrivalent_vertex():
    s = LabelSet.numbered(6)
    for t in enumerate_curve_trees(s):
        v0 = exceptional_vertex(t)
        degrees = [0] * t.n_vertices
        for i, j in t.edges:
            degrees[i] += 1
            degrees[j] += 1
        for v in range(t.n_vertices):
            flags = degrees[v] + len(t.tails_at(v))
            assert flags == (4 if v == v0 else 3)


def test_v0_incident_cuts_are_the_n_set():
    s = LabelSet.numbered(6)
    for t in enumerate_curve_trees(s):
        v0 = exceptional_vertex(t)
        incident = {edge_cut(t, e) for e in t.edges if v0 in e}
        assert incident == set(n_set(pi_of_tree(t)))


# ------------------------------------------------------- enumeration


def test_enumerate_trees_codim_zero_is_star():
    s = LabelSet.numbered(6)
    out = enumerate_trees(s, 0)
    assert len(out) == 1
    assert out[0].n_vertices == 1


def test_enumerate_trees_codim_one_matches_divisors():
    s = LabelSet.numbered(6)
    out = enumerate_trees(s, 1)
    assert len(out) == len(enumerate_stable_two_partitions(s))


def test_enumerate_trees_equals_the_clique_search():
    for n in range(4, 9):
        s = LabelSet.numbered(n)
        for codim in range(n - 2):
            out = enumerate_trees(s, codim)
            assert len(set(out)) == len(out)
            assert set(out) == set(trees_by_clique_search(s, codim)), (n, codim)
    s = LabelSet.numbered(5)
    sigmas = enumerate_stable_two_partitions(s)
    brute = sum(1 for x, y in combinations(sigmas, 2) if compatible(x, y))
    assert brute == len(enumerate_trees(s, 2)) == 15


def test_stratum_totals_are_schroder_numbers():
    # Rooted at its last label, a stable tree on n labels is a rooted tree
    # on n - 1 labelled leaves whose inner vertices have two or more children
    # (Schröder's fourth problem, OEIS A000311).  With t[m] such trees and
    # f[m] forests of them on m leaves, a forest splits off the tree of its
    # smallest leaf, of j leaves; a tree on m >= 2 leaves is its root and a
    # forest of two or more trees, so f[m] = 2 t[m].
    t, f = [0, 1], [1, 1]
    for m in range(2, 9):
        t.append(sum(math.comb(m - 1, j - 1) * t[j] * f[m - j] for j in range(1, m)))
        f.append(2 * t[m])
    for n in range(3, 10):
        s = LabelSet.numbered(n)
        assert sum(len(enumerate_trees(s, codim)) for codim in range(n - 2)) == t[n - 1]


def test_enumerate_trees_rejects_out_of_range():
    s = LabelSet.numbered(5)
    with pytest.raises(InvariantError, match="codimension"):
        enumerate_trees(s, 3)
    with pytest.raises(InvariantError, match="codimension"):
        enumerate_trees(s, -1)
    for codim in (2.0, True):
        with pytest.raises(InvariantError, match=f"^codimension must be an integer, got {codim}$"):
            enumerate_trees(s, codim)
    # Past the bound the star tree is still built; only the walk is refused.
    s17 = LabelSet.numbered(17)
    assert enumerate_trees(s17, 0) == [StableTree(s17, ())]
    with pytest.raises(InvariantError, match="^17 labels exceeds the enumeration bound 16$"):
        enumerate_trees(s17, 1)


def test_curve_trees_equal_generic_enumerator_at_curve_codim():
    for n in (5, 6, 7):
        s = LabelSet.numbered(n)
        assert set(enumerate_trees(s, n - 4)) == set(enumerate_curve_trees(s))


def test_maximal_codimension_is_trivalent():
    s = LabelSet.numbered(6)
    for t in enumerate_trees(s, 3):
        degrees = [0] * t.n_vertices
        for i, j in t.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert all(
            degrees[v] + len(t.tails_at(v)) == 3 for v in range(t.n_vertices)
        )


# ----------------------------------------------------------- type keys


def test_type_key_invariant_under_relabeling():
    s = LabelSet.numbered(7)
    t = make_tree([[1, 2, 3], [4], [5], [6, 7]], [(0, 1), (1, 2), (2, 3)], s)
    relabeled = make_tree([[7, 5, 3], [1], [2], [4, 6]], [(0, 1), (1, 2), (2, 3)], s)
    assert unlabeled_type_key(t) == unlabeled_type_key(relabeled)


def test_type_key_distinguishes_the_two_n6_types():
    s = LabelSet.numbered(6)
    chain = make_tree([[1, 2, 3], [4], [5, 6]], [(0, 1), (1, 2)], s)
    balanced = make_tree([[1, 2], [3, 4], [5, 6]], [(0, 1), (1, 2)], s)
    assert unlabeled_type_key(chain) != unlabeled_type_key(balanced)


def test_type_keys_match_networkx_isomorphism():
    """Equal keys exactly when the trees, weighted by tail counts, are isomorphic."""
    nx = pytest.importorskip("networkx")
    by_key: dict[str, list] = {}
    for n in range(4, 8):
        s = LabelSet.numbered(n)
        for codim in range(n - 2):
            for t in enumerate_trees(s, codim):
                by_key.setdefault(unlabeled_type_key(t), []).append(t)
    assert sum(len(ts) for ts in by_key.values()) == 3018
    assert len(by_key) == 25

    def weighted(t):
        g = nx.Graph()
        g.add_nodes_from((v, {"tails": len(t.tails_at(v))}) for v in range(t.n_vertices))
        g.add_edges_from(t.edges)
        return g

    same_tails = nx.algorithms.isomorphism.categorical_node_match("tails", None)
    reps = []
    for ts in by_key.values():
        rep = weighted(ts[0])
        for t in ts[1:]:
            assert nx.is_isomorphic(rep, weighted(t), node_match=same_tails)
        reps.append(rep)
    for g, h in combinations(reps, 2):
        assert not nx.is_isomorphic(g, h, node_match=same_tails)


def test_type_key_uses_centroid_for_non_curve_trees():
    s = LabelSet.numbered(8)
    # A symmetric chain with a bicentroid: both encodings must agree.
    t = make_tree([[1, 2], [3, 4], [5, 6], [7, 8]], [(0, 1), (1, 2), (2, 3)], s)
    key = unlabeled_type_key(t)
    relabeled = make_tree([[7, 8], [5, 6], [3, 4], [1, 2]], [(0, 1), (1, 2), (2, 3)], s)
    assert key == unlabeled_type_key(relabeled)
