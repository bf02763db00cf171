"""Intersection pairings, anticanonical degrees, and the exact matrix rank.

Four independent oracles live here: a rank computed by rational
elimination, dense or by sparse column reduction (checking the certified
route), a pairing read directly off curve trees (checking the
partition route), the paper's pairing rule applied to label sets
(checking the P-set and N-set route), and relabelling, under which every
pairing and degree is invariant (checking the conventions that single out
the smallest label).  The rank certificate, built from the
rows, is checked against a GF(2) elimination of every Keel relation and an
exhaustive walk of the column leads, both for n <= 10.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

from stablecurves import (
    CurveTrees,
    DistinguishedPartition,
    InternalCheckError,
    IntersectionMatrix,
    InvariantError,
    LabelSet,
    TwoPartition,
    enumerate_curve_trees,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    intersection_matrix,
    k_plus_b_pairing,
    matrix_rank,
    minus_k_closed,
    minus_k_divisor_coefficients,
    minus_k_expanded,
    n_set,
    pair_divisor_curve,
    pi_of_tree,
    picard_rank,
)
from stablecurves import intersect

from _support import act, pair_via_curve_tree, run_python


# ---------------------------------------------------------------- oracles


def rank_by_rational_elimination(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_by_sparse_reduction(vectors):
    """Rank over the rationals of ``vectors``, each reduced in turn against the pivots kept so far.

    A vector is a sparse map from index to value, keyed when kept by its
    largest nonzero index; one that leaves a remainder is kept.
    """
    pivots = {}
    for vector in vectors:
        v = {i: Fraction(x) for i, x in enumerate(vector) if x}
        while v:
            top = max(v)
            if top not in pivots:
                pivots[top] = v
                break
            w = pivots[top]
            factor = v[top] / w[top]
            for i, x in w.items():
                y = v.get(i, 0) - factor * x
                if y:
                    v[i] = y
                else:
                    del v[i]
    return len(pivots)


def pairings_by_label_sets(sigmas, pi):
    """The pairing of each sigma with pi, from the paper's rule on label sets.

    +1 when each part of sigma is a union of two blocks of pi, -1 when one
    part of sigma is a single block, and 0 otherwise.  No masks, P-sets or
    N-sets are consulted.
    """
    blocks = {frozenset(b) for b in pi.blocks}
    unions = {x | y for x, y in combinations(blocks, 2)}
    out = []
    for sigma in sigmas:
        parts = (frozenset(sigma.part_a), frozenset(sigma.part_b))
        if all(part in unions for part in parts):
            out.append(1)
        elif any(part in blocks for part in parts):
            out.append(-1)
        else:
            out.append(0)
    return out


# ------------------------------------------------------------- pairings


def test_pair_p_member():
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]])
    assert pair_divisor_curve(TwoPartition.of(s, [1, 2]), pi) == 1
    assert pair_divisor_curve(TwoPartition.of(s, [1, 3]), pi) == 1


def test_pair_n_member():
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]])
    assert pair_divisor_curve(TwoPartition.of(s, [4, 5, 6]), pi) == -1


def test_pair_neither():
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]])
    assert pair_divisor_curve(TwoPartition.of(s, [1, 4]), pi) == 0
    assert pair_divisor_curve(TwoPartition.of(s, [4, 5]), pi) == 0


def test_pair_union_of_two_singleton_blocks_is_positive():
    # The two-singleton union is a union of two blocks, hence always +1.
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]])
    assert pair_divisor_curve(TwoPartition.of(s, [2, 3]), pi) == 1


def test_pair_classification_matches_sets_exhaustively():
    for n in (5, 6, 7):
        s = LabelSet.numbered(n)
        sigmas = enumerate_stable_two_partitions(s)
        for pi in enumerate_distinguished(s):
            got = [pair_divisor_curve(sigma, pi) for sigma in sigmas]
            assert got == pairings_by_label_sets(sigmas, pi)


def test_pair_rejects_small_n_and_mixed_labels():
    s4 = LabelSet.numbered(4)
    pi4 = DistinguishedPartition.of(s4, [[1], [2], [3], [4]])
    with pytest.raises(InvariantError):
        pair_divisor_curve(TwoPartition.of(s4, [3, 4]), pi4)
    s5 = LabelSet.numbered(5)
    s6 = LabelSet.numbered(6)
    pi6 = DistinguishedPartition.of(s6, [[1], [2], [3], [4, 5, 6]])
    with pytest.raises(InvariantError, match="^sigma and pi must use the same labels$"):
        pair_divisor_curve(TwoPartition.of(s5, [4, 5]), pi6)


def test_pairing_matches_curve_tree_route():
    for n in (5, 6):
        s = LabelSet.numbered(n)
        sigmas = enumerate_stable_two_partitions(s)
        for tree in enumerate_curve_trees(s):
            pi = pi_of_tree(tree)
            for sigma in sigmas:
                assert pair_via_curve_tree(sigma, tree) == pair_divisor_curve(sigma, pi)


def test_pairings_and_degrees_are_invariant_under_relabelling():
    # Every stored convention singles out the smallest label, so a relabelling
    # that moves it checks that the conventions are derived, not assumed.
    # String labels let sort order, not integer value, pick that label.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def relabellings(draw):
        n = draw(st.integers(5, 7))
        if draw(st.booleans()):
            s = LabelSet.numbered(n)
        else:
            s = LabelSet(draw(st.sets(st.text("ab19", min_size=1, max_size=3), min_size=n, max_size=n)))
        return s, draw(st.permutations(range(n)))

    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @given(relabellings())
    def check(relabelling):
        s, perm = relabelling
        degrees = (minus_k_closed, minus_k_expanded, k_plus_b_pairing)
        sigmas = enumerate_stable_two_partitions(s)
        moved = [act(perm, sigma) for sigma in sigmas]
        for pi in enumerate_distinguished(s):
            image = act(perm, pi)
            assert [f(image) for f in degrees] == [f(pi) for f in degrees]
            got = [pair_divisor_curve(sigma, image) for sigma in moved]
            assert got == [pair_divisor_curve(sigma, pi) for sigma in sigmas]

    check()


# --------------------------------------------------- anticanonical degree


def test_minus_k_closed_examples():
    s6 = LabelSet.numbered(6)
    assert minus_k_closed(DistinguishedPartition.of(s6, [[1], [2], [3], [4, 5, 6]])) == 1
    assert minus_k_closed(DistinguishedPartition.of(s6, [[1, 2], [3, 4], [5], [6]])) == 0
    s7 = LabelSet.numbered(7)
    assert minus_k_closed(DistinguishedPartition.of(s7, [[1], [2, 3], [4, 5], [6, 7]])) == -1
    s4 = LabelSet.numbered(4)
    assert minus_k_closed(DistinguishedPartition.of(s4, [[1], [2], [3], [4]])) == 2


def test_minus_k_closed_range():
    for n in (5, 6, 7):
        for pi in enumerate_distinguished(LabelSet.numbered(n)):
            assert -2 <= minus_k_closed(pi) <= 1
            assert minus_k_closed(pi) == 2 - len(n_set(pi))


def test_minus_k_coefficients_values():
    s6 = LabelSet.numbered(6)
    coeffs = minus_k_divisor_coefficients(s6)
    assert set(coeffs) == set(enumerate_stable_two_partitions(s6))
    for sigma, value in coeffs.items():
        j = min(sigma.sizes)
        assert value == 2 - Fraction(j * (6 - j), 5)
    by_sizes = {tuple(sorted(sigma.sizes)): v for sigma, v in coeffs.items()}
    assert by_sizes[(2, 4)] == Fraction(2, 5)
    assert by_sizes[(3, 3)] == Fraction(1, 5)
    s4 = LabelSet.numbered(4)
    assert set(minus_k_divisor_coefficients(s4).values()) == {Fraction(2, 3)}


def test_minus_k_expanded_examples():
    s6 = LabelSet.numbered(6)
    assert minus_k_expanded(DistinguishedPartition.of(s6, [[1, 2], [3, 4], [5], [6]])) == 0
    s7 = LabelSet.numbered(7)
    assert minus_k_expanded(DistinguishedPartition.of(s7, [[1], [2, 3], [4, 5], [6, 7]])) == -1
    assert minus_k_expanded(DistinguishedPartition.of(s7, [[1, 2, 3, 4], [5], [6], [7]])) == 1


def test_minus_k_expanded_rejects_n4():
    s4 = LabelSet.numbered(4)
    with pytest.raises(InvariantError):
        minus_k_expanded(DistinguishedPartition.of(s4, [[1], [2], [3], [4]]))


def test_minus_k_expanded_checks_that_the_sum_divides_exactly(monkeypatch):
    # One more per member adds 3 - |N| = 2 to a sum over 5 here.
    numerator = intersect._minus_k_numerator
    monkeypatch.setattr(intersect, "_minus_k_numerator", lambda n, b: numerator(n, b) + 1)
    pi = DistinguishedPartition.of(LabelSet.numbered(6), [[1], [2], [3], [4, 5, 6]])
    with pytest.raises(InternalCheckError, match="^expanded degree is not an integer$"):
        minus_k_expanded(pi)


def test_k_plus_b_is_one_exhaustive():
    # The oracle walks every divisor, as the closed form no longer does.
    for n in (5, 6, 7, 8):
        s = LabelSet.numbered(n)
        sigmas = enumerate_stable_two_partitions(s)
        for pi in enumerate_distinguished(s):
            walked = sum(pairings_by_label_sets(sigmas, pi)) - minus_k_closed(pi)
            assert k_plus_b_pairing(pi) == walked == 1


def test_pairing_and_k_plus_b_have_no_enumeration_bound():
    # Neither reads an enumeration, so label sets above DEFAULT_MAX_N work.
    for n in (17, 24):
        s = LabelSet.numbered(n)
        q = n // 4
        sigmas = [
            TwoPartition.of(s, part)
            for part in ([1, 2], [1, n], range(4, n + 1), range(1, q + 1), range(1, 2 * q + 1))
        ]
        for starts in ((1, 2, 3, 4), (1, n - 2, n - 1, n), (1, q + 1, 2 * q + 1, 3 * q + 1)):
            ends = starts[1:] + (n + 1,)
            pi = DistinguishedPartition.of(s, [range(a, b) for a, b in zip(starts, ends)])
            assert k_plus_b_pairing(pi) == 1
            got = [pair_divisor_curve(sigma, pi) for sigma in sigmas]
            assert got == pairings_by_label_sets(sigmas, pi)


# ----------------------------------------------------------------- rank


def test_matrix_shapes_and_entries():
    for n in (5, 6, 7):
        s = LabelSet.numbered(n)
        m = intersection_matrix(s)
        assert m.rows == tuple(enumerate_stable_two_partitions(s))
        assert tuple(m.cols) == tuple(enumerate_distinguished(s))
        assert all(type(row) is tuple and len(row) == len(m.cols) for row in m.entries)
        for c, pi in enumerate(m.cols):
            column = [row[c] for row in m.entries]
            assert column == pairings_by_label_sets(m.rows, pi)
            assert column.count(1) == 3
            assert column.count(-1) == len(n_set(pi))


def test_matrix_rank_matches_the_rational_oracle():
    # The certified sparse rank against dense elimination, and at n = 8
    # against a reduction of the columns, too slow densely.
    for n in (5, 6, 7):
        m = intersection_matrix(LabelSet.numbered(n))
        assert matrix_rank(m) == rank_by_rational_elimination(m.entries) == picard_rank(n)
    m8 = intersection_matrix(LabelSet.numbered(8))
    assert matrix_rank(m8) == rank_by_sparse_reduction(zip(*m8.entries)) == picard_rank(8)


def test_sparse_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (5, 6, 7):
        m = intersection_matrix(LabelSet.numbered(n))
        assert matrix_rank(m) == sympy.Matrix(m.entries).rank()


def test_a_matrix_and_its_curve_trees_are_their_label_set():
    # Neither type takes rows, columns or classes of its own, so the rank
    # certificate, which holds only for the whole table, always applies.
    for n in (5, 6, 7, 8):
        s = LabelSet.numbered(n)
        m = IntersectionMatrix(s)
        assert m == intersection_matrix(s) and hash(m) == hash(intersection_matrix(s))
        assert matrix_rank(m) == picard_rank(n)
    s = LabelSet.numbered(6)
    m = intersection_matrix(s)
    assert m.rows == tuple(enumerate_stable_two_partitions(s)) and m.cols == enumerate_distinguished(s)
    with pytest.raises(TypeError):
        IntersectionMatrix(s, m.rows[:-1], m.cols)
    curves = CurveTrees(s)
    assert curves == enumerate_curve_trees(s) and len(curves) == len(enumerate_curve_trees(s))
    with pytest.raises(TypeError):
        CurveTrees(s, enumerate_distinguished(s))
    # Too few labels for a curve tree: the length refuses as the walk does.
    few = CurveTrees(LabelSet.numbered(3))
    for read in (len, list):
        with pytest.raises(InvariantError, match="^operation needs at least 4 labels, got 3$"):
            read(few)


def test_sparse_rank_never_builds_the_dense_table():
    m = intersection_matrix(LabelSet.numbered(7))
    matrix_rank(m)
    assert "entries" not in vars(m)


def test_matrices_over_one_label_set_are_equal_and_hash_alike():
    a = intersection_matrix(LabelSet.numbered(6))
    b = intersection_matrix(LabelSet.numbered(6))
    assert a == b and hash(a) == hash(b)
    assert a != intersection_matrix(LabelSet.numbered(7))


def test_sparse_rank_heap_in_a_fresh_interpreter():
    # The certificate reads the lazy class stream one class at a time for
    # its kernel check and holds only the lead counts and the pair-row masks:
    # the traced peak is about 0.07 MiB at n = 10.
    script = (
        "import tracemalloc\n"
        "from stablecurves import LabelSet, intersection_matrix, matrix_rank\n"
        "s = LabelSet.numbered(10)\n"
        "tracemalloc.start()\n"
        "rank = matrix_rank(intersection_matrix(s))\n"
        "print(rank, tracemalloc.get_traced_memory()[1])\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    rank, peak = map(int, done.stdout.split())
    assert rank == picard_rank(10)
    assert peak / 2**20 < 0.5


def keel_relations_by_row_scan(m):
    """Keel's R(1, 2, k, l) for every ordered pair k != l, as (+rows, -rows) bitsets.

    Each relation scans every row: +1 where part b holds k and l but not 2,
    -1 where it holds 2 and l but not k.
    """
    out = []
    for k, l in permutations(range(2, m.label_set.n), 2):
        plus = minus = 0
        for r, sigma in enumerate(m.rows):
            b = sigma.part_b_mask
            if b >> k & b >> l & 1:
                if not b & 2:
                    plus |= 1 << r
            elif b & 2 and b >> l & 1:
                minus |= 1 << r
        out.append((plus, minus))
    return out


def keel_basis_over_gf2(m):
    """Keel's relations independent over GF(2), hence over the rationals.

    Each relation's support is reduced against the pivots kept so far,
    keyed by bit length; one that leaves a remainder joins the basis.
    """
    pivots = {}
    basis = []
    for rel in keel_relations_by_row_scan(m):
        v = rel[0] | rel[1]
        while v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
            basis.append(rel)
    return basis


def column_leads(m):
    """Each column's lead, the largest part-b mask among its nonzero rows, mapped to its classes.

    Walks every column.
    """
    leads = {}
    for pi in m.cols:
        leads.setdefault(max(intersect._p_masks(pi) + intersect._n_masks(pi)), []).append(pi)
    return leads


def test_keel_basis_is_in_the_left_kernel():
    for n in (5, 6, 7, 8):
        m = intersection_matrix(LabelSet.numbered(n))
        basis = [
            [intersect._relation(k, l, sigma.part_b_mask) for sigma in m.rows] for k, l in intersect._basis_pairs(n)
        ]
        assert len(basis) == len(keel_basis_over_gf2(m)) == n * (n - 3) // 2
        assert rank_by_rational_elimination(basis) == len(basis)
        for coefficients in basis:
            assert set(coefficients) == {-1, 0, 1}
            total = [0] * len(m.cols)
            for sign, row in zip(coefficients, m.entries):
                if sign:
                    total = [t + sign * x for t, x in zip(total, row)]
            assert total == [0] * len(m.cols)


def test_keel_basis_size_is_rows_minus_picard_rank():
    # The upper bound ranks the explicit basis on the pair rows alone; the
    # oracle eliminates every relation over GF(2), on every row.
    for n in range(5, 11):
        m = intersection_matrix(LabelSet.numbered(n))
        gf2 = len(keel_basis_over_gf2(m))
        assert gf2 == len(intersect._basis_pairs(n)) == n * (n - 3) // 2
        assert intersect._rank_bounds(m)[1] == len(m.rows) - gf2 == picard_rank(n)


def keel_placements(n):
    """For each class of n labels, which of labels 1-4 each block holds, and which hold at least 2 labels."""
    out = set()
    for pi in enumerate_distinguished(LabelSet.numbered(n)):
        masks = pi.block_masks
        out.add((tuple(m & 0b1111 for m in masks), tuple(m.bit_count() >= 2 for m in masks)))
    return out


def test_keel_placements_all_occur_at_10_labels():
    # The kernel check pairs R(1, 2, 3, 4) with the classes of 10 labels
    # only: no placement is new above 10.
    found = {n: keel_placements(n) for n in range(5, 13)}
    assert [len(found[n]) for n in range(5, 13)] == [10, 41, 82, 107, 114, 115, 115, 115]
    assert found[10] == found[11] == found[12]


def lead_classes(s):
    """One class per lead row, built from the row alone, as (row, class) pairs.

    A row whose part b holds at least 3 labels leads A | x | y | b - {x, y},
    with x, y the two smallest labels of b and A the other part.  Of the
    pair rows only {n - 1, n} leads, by the class 1 | 2..n-2 | n-1 | n.
    """
    n = s.n
    out = []
    for sigma in enumerate_stable_two_partitions(s):
        b = sigma.part_b
        if len(b) >= 3:
            blocks = [sigma.part_a, b[:1], b[1:2], b[2:]]
        elif b == (n - 1, n):
            blocks = [[1], range(2, n - 1), [n - 1], [n]]
        else:
            continue
        out.append((sigma, DistinguishedPartition.of(s, blocks)))
    return out


def test_lead_bound_matches_the_rational_oracle_picard_and_keel():
    for n in range(5, 11):
        m = intersection_matrix(LabelSet.numbered(n))
        lower, upper = intersect._rank_bounds(m)
        assert lower == upper == picard_rank(n)
        if n <= 7:
            assert lower == rank_by_rational_elimination(m.entries)


def test_lead_classes_give_the_lead_bound():
    # The built classes against the label-level construction, and their
    # leads against the exhaustive column-lead map.
    for n in range(5, 11):
        s = LabelSet.numbered(n)
        m = intersection_matrix(s)
        built = list(intersect._lead_classes(m))
        assert built == [(sigma.part_b_mask, pi) for sigma, pi in lead_classes(s)]
        leads = column_leads(m)
        assert set(leads) == {b for b, _ in built}
        for b, pi in built:
            assert pi in leads[b], pi.literal()
        assert len(built) == intersect._rank_bounds(m)[0] == picard_rank(n)


def test_sparse_rank_refuses_when_bounds_differ(monkeypatch):
    monkeypatch.setattr(intersect, "_rank_bounds", lambda m: (0, len(m.rows)))
    m = intersection_matrix(LabelSet.numbered(6))
    with pytest.raises(InternalCheckError, match="^rank bounds differ: 0 distinct leads, Keel bound 25$"):
        matrix_rank(m)
    assert "entries" not in vars(m)


def test_sparse_rank_refuses_when_a_lead_goes_missing(monkeypatch):
    built = intersect._lead_classes
    monkeypatch.setattr(intersect, "_lead_classes", lambda m: islice(built(m), 1, None))
    m = intersection_matrix(LabelSet.numbered(6))
    with pytest.raises(InternalCheckError, match="^rank bounds differ: 15 distinct leads, Keel bound 16$"):
        matrix_rank(m)
    assert "entries" not in vars(m)


def test_sparse_rank_rejects_a_lead_class_built_for_another_row(monkeypatch):
    built = intersect._lead_classes

    def swapped(m):
        (b0, pi0), (b1, pi1), *rest = built(m)
        return [(b0, pi1), (b1, pi0)] + rest

    monkeypatch.setattr(intersect, "_lead_classes", swapped)
    with pytest.raises(InternalCheckError, match="does not lead at its row$"):
        matrix_rank(intersection_matrix(LabelSet.numbered(6)))


def test_a_passing_rank_formats_no_lead_class(monkeypatch):
    # The lead check builds its message only when a class fails it.
    literal = DistinguishedPartition.literal
    formatted = []
    monkeypatch.setattr(DistinguishedPartition, "literal", lambda pi: formatted.append(pi) or literal(pi))
    assert matrix_rank(intersection_matrix(LabelSet.numbered(8))) == picard_rank(8)
    assert formatted == []


def test_sparse_rank_rejects_a_corrupted_relation(monkeypatch):
    # Part b = {3, 4} is a +1 row of R(1, 2, 3, 4); count it twice.
    keel = intersect._keel
    monkeypatch.setattr(intersect, "_keel", lambda k, l, b: keel(k, l, b) + ((k, l, b) == (2, 3, 0b1100)))
    with pytest.raises(InternalCheckError, match="^a Keel relation pairs nonzero with a curve class$"):
        matrix_rank(intersection_matrix(LabelSet.numbered(6)))


def test_sparse_rank_rejects_relations_sharing_a_lead(monkeypatch):
    # R(1, 2, 3, 4) in place of the last relation: the count is unchanged,
    # so the bounds still meet, but the basis no longer certifies the upper one.
    pairs = intersect._basis_pairs
    monkeypatch.setattr(intersect, "_basis_pairs", lambda n: pairs(n)[:-1] + pairs(n)[:1])
    with pytest.raises(InternalCheckError, match="^Keel relations lack distinct leads on the pair rows$"):
        matrix_rank(intersection_matrix(LabelSet.numbered(6)))


def test_sparse_rank_rejects_a_relation_without_a_lead(monkeypatch):
    # R(1, 2, 3, 4) read as zero everywhere has no lead, and proves nothing.
    relation = intersect._relation
    monkeypatch.setattr(intersect, "_relation", lambda k, l, b: (k, l) != (2, 3) and relation(k, l, b))
    with pytest.raises(InternalCheckError, match="^Keel relations lack distinct leads on the pair rows$"):
        matrix_rank(intersection_matrix(LabelSet.numbered(6)))


def test_sparse_rank_rejects_a_corrupted_column(monkeypatch):
    # Each class loses its first N-member.
    n_masks = intersect._n_masks
    monkeypatch.setattr(intersect, "_n_masks", lambda pi: n_masks(pi)[1:])
    with pytest.raises(InternalCheckError):
        matrix_rank(intersection_matrix(LabelSet.numbered(6)))


def test_intersection_matrix_rejects_n4():
    with pytest.raises(InvariantError):
        intersection_matrix(LabelSet.numbered(4))
    with pytest.raises(InvariantError):
        picard_rank(3)
    for n in (4.5, 5.0):
        with pytest.raises(InvariantError, match="label count must be an integer"):
            picard_rank(n)
