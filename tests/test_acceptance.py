"""End-to-end acceptance checks.

Each criterion prints exactly one verdict line, `ACCEPTANCE <k>: PASS - ...`
or `ACCEPTANCE <k>: FAIL - ...`, and fails the test run on FAIL.
"""

from __future__ import annotations

import time
from itertools import combinations

from stablecurves import (
    LabelSet,
    enumerate_curve_trees,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    enumerate_trees,
    forget_and_stabilize,
    intersection_matrix,
    k_plus_b_pairing,
    matrix_rank,
    minus_k_closed,
    minus_k_expanded,
    pair_divisor_curve,
    picard_rank,
    pi_of_tree,
    run_census,
    signature,
    tree_from_signature,
)

from _support import odd_product_class_size, pair_via_curve_tree


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _classes_of(n: int) -> dict:
    """Curve trees grouped by the class they represent."""
    groups: dict = {}
    for t in enumerate_curve_trees(LabelSet.numbered(n)):
        groups.setdefault(pi_of_tree(t), []).append(t)
    return groups


def test_acceptance_1_census_n5():
    def check():
        start = time.perf_counter()
        report = run_census(LabelSet.numbered(5))
        elapsed = time.perf_counter() - start
        assert report.total_classes == 10
        assert report.total_curves == 10
        assert len(report.classes) == 1
        row = report.classes[0]
        assert row.shape == (2, 1, 1, 1)
        assert row.class_count == 10
        assert row.curves_per_class == 1
        assert row.minus_k == 1
        assert len(report.types) == 1
        assert report.types[0].curve_count == 10
        assert report.types[0].minus_k == 1
        assert elapsed < 1.0

    _report(1, "n=5 census: 10 classes, 10 curves, in under a second", check)


def test_acceptance_2_census_n6():
    def check():
        start = time.perf_counter()
        report = run_census(LabelSet.numbered(6))
        elapsed = time.perf_counter() - start
        assert [(t.curve_count, t.minus_k) for t in report.types] == [(60, 1), (45, 0)]
        assert [(c.shape, c.class_count, c.curves_per_class, c.minus_k) for c in report.classes] == [
            ((3, 1, 1, 1), 20, 3, 1),
            ((2, 2, 1, 1), 45, 1, 0),
        ]
        assert report.total_classes == 65
        assert report.total_curves == 105
        assert elapsed < 1.0

    _report(2, "n=6 census: type counts 60/45, class rows 20x3 and 45x1", check)


def test_acceptance_3_census_n7():
    def check():
        start = time.perf_counter()
        report = run_census(LabelSet.numbered(7))
        elapsed = time.perf_counter() - start
        by_name = {t.name: (t.curve_count, t.minus_k) for t in report.types}
        assert by_name == {
            "A": (420, 1),
            "B": (630, 0),
            "C": (105, 1),
            "D": (105, -1),
        }
        rows = {tuple(c.shape): c for c in report.classes}
        assert rows[(4, 1, 1, 1)].class_count == 35
        assert rows[(4, 1, 1, 1)].curves_per_class == 15
        assert sorted(dict(rows[(4, 1, 1, 1)].curves_per_class_by_type).values()) == [3, 12]
        assert rows[(3, 2, 1, 1)].class_count == 210
        assert rows[(3, 2, 1, 1)].curves_per_class == 3
        assert rows[(2, 2, 2, 1)].class_count == 105
        assert rows[(2, 2, 2, 1)].curves_per_class == 1
        assert report.total_classes == 350
        assert report.total_curves == 1260
        assert elapsed < 5.0

    _report(3, "n=7 census: four named types 420/630/105/105 with degrees 1/0/1/-1", check)


def test_acceptance_4_degree_routes_agree():
    def check():
        start = time.perf_counter()
        for n in range(5, 9):
            s = LabelSet.numbered(n)
            for pi in enumerate_distinguished(s):
                expanded = minus_k_expanded(pi)
                assert expanded.denominator == 1
                assert int(expanded) == minus_k_closed(pi)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0

    _report(4, "closed and expanded degree routes agree exactly for every class, n=5..8", check)


def test_acceptance_5_k_plus_b_is_one():
    def check():
        for n in range(5, 9):
            s = LabelSet.numbered(n)
            for pi in enumerate_distinguished(s):
                assert k_plus_b_pairing(pi) == 1

    _report(5, "log-canonical pairing equals 1 for every class, n=5..8", check)


def test_acceptance_6_matrix_rank_matches_picard_rank():
    def check():
        assert picard_rank(5) == 5
        assert picard_rank(6) == 16
        assert picard_rank(7) == 42
        dims = {5: (10, 10), 6: (25, 65), 7: (56, 350)}
        start = time.perf_counter()
        for n in (5, 6, 7):
            m = intersection_matrix(LabelSet.numbered(n))
            assert (len(m.rows), len(m.cols)) == dims[n]
            assert matrix_rank(m) == picard_rank(n)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0

    _report(6, "pairing matrix rank equals the Picard rank 5/16/42 for n=5/6/7", check)


def test_acceptance_7_class_sizes_match_enumeration():
    def check():
        totals = {}
        for n in range(4, 9):
            s = LabelSet.numbered(n)
            groups = _classes_of(n)
            assert set(groups) == set(enumerate_distinguished(s))
            for pi, trees in groups.items():
                # (2k - 3)!! = 1 * 3 * ... * (2k - 3) rooted trivalent trees per block of k
                assert len(trees) == odd_product_class_size(pi)
            totals[n] = sum(len(ts) for ts in groups.values())
        assert totals == {4: 1, 5: 10, 6: 105, 7: 1260, 8: 17325}

    _report(7, "every class carries exactly its double-factorial curve count, n=4..8", check)


def test_acceptance_8_structural_properties():
    def check():
        # Signature round trip over every stable tree.
        for n in range(4, 8):
            s = LabelSet.numbered(n)
            for codim in range(0, n - 2):
                for t in enumerate_trees(s, codim):
                    assert tree_from_signature(signature(t), s) == t

        # Forgetting labels commutes and matches one-shot forgetting.
        s = LabelSet.numbered(6)
        for codim in range(0, 4):
            for t in enumerate_trees(s, codim):
                for q1, q2 in combinations(s.labels, 2):
                    one_way = forget_and_stabilize(forget_and_stabilize(t, [q1]), [q2])
                    other_way = forget_and_stabilize(forget_and_stabilize(t, [q2]), [q1])
                    at_once = forget_and_stabilize(t, [q1, q2])
                    assert one_way == other_way == at_once

        # Every curve in a class meets every divisor the same way, and the
        # tree route agrees with the partition route.
        for n in range(5, 8):
            s = LabelSet.numbered(n)
            sigmas = list(enumerate_stable_two_partitions(s))
            for pi, trees in _classes_of(n).items():
                expected = [pair_divisor_curve(sigma, pi) for sigma in sigmas]
                for t in trees:
                    assert [pair_via_curve_tree(sigma, t) for sigma in sigmas] == expected

    _report(8, "signature round trip, forgetting commutes, pairing constant on classes", check)


def test_acceptance_9_census_n4():
    def check():
        report = run_census(LabelSet.numbered(4))
        assert report.total_classes == 1
        assert report.total_curves == 1
        assert len(report.classes) == 1
        row = report.classes[0]
        assert row.shape == (1, 1, 1, 1)
        assert row.class_count == 1
        assert row.curves_per_class == 1
        assert row.minus_k == 2
        assert len(report.types) == 1
        assert report.types[0].curve_count == 1
        assert report.types[0].minus_k == 2

    _report(9, "n=4 census: the single class is the whole space, with degree 2", check)
