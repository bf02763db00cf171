"""Census layer: per-type and per-class bookkeeping over all curve trees."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from stablecurves import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    class_size_oracle,
    classes_by_shape,
    enumerate_curve_trees,
    enumerate_distinguished,
    pi_of_tree,
    render_table,
    run_census,
)


def stirling_4(n):
    row = {(0, 0): 1}
    for m in range(1, n + 1):
        for k in range(0, 5):
            row[(m, k)] = k * row.get((m - 1, k), 0) + row.get((m - 1, k - 1), 0)
    return row[(n, 4)]


def multinomial_classes(n, shape):
    """Number of 4-block partitions with the given size multiset."""
    total = math.factorial(n)
    for b in shape:
        total //= math.factorial(b)
    from collections import Counter

    for repeats in Counter(shape).values():
        total //= math.factorial(repeats)
    return total


def test_census_n4_single_class():
    report = run_census(LabelSet.numbered(4))
    assert report.total_curves == 1
    assert report.total_classes == 1
    assert len(report.types) == 1
    assert report.types[0].minus_k == 2
    assert report.classes[0].shape == (1, 1, 1, 1)
    assert report.classes[0].minus_k == 2


def test_census_n5():
    report = run_census(LabelSet.numbered(5))
    assert report.total_curves == 10
    assert report.total_classes == 10
    assert len(report.types) == 1
    assert report.types[0].curve_count == 10
    assert report.types[0].minus_k == 1
    assert report.classes[0].shape == (2, 1, 1, 1)
    assert report.classes[0].class_count == 10
    assert report.classes[0].curves_per_class == 1


def test_census_n6():
    report = run_census(LabelSet.numbered(6))
    assert report.total_curves == 105
    assert report.total_classes == 65
    assert [(t.curve_count, t.minus_k) for t in report.types] == [(60, 1), (45, 0)]
    assert [(c.shape, c.class_count, c.curves_per_class, c.minus_k) for c in report.classes] == [
        ((3, 1, 1, 1), 20, 3, 1),
        ((2, 2, 1, 1), 45, 1, 0),
    ]


def test_census_n7_named_types():
    report = run_census(LabelSet.numbered(7))
    assert report.total_curves == 1260
    assert report.total_classes == 350
    by_name = {t.name: t for t in report.types}
    assert set(by_name) == {"A", "B", "C", "D"}
    assert (by_name["A"].curve_count, by_name["A"].minus_k) == (420, 1)
    assert (by_name["B"].curve_count, by_name["B"].minus_k) == (630, 0)
    assert (by_name["C"].curve_count, by_name["C"].minus_k) == (105, 1)
    assert (by_name["D"].curve_count, by_name["D"].minus_k) == (105, -1)


def test_census_n7_classes():
    report = run_census(LabelSet.numbered(7))
    rows = {c.shape: c for c in report.classes}
    assert rows[(4, 1, 1, 1)].class_count == 35
    assert rows[(4, 1, 1, 1)].curves_per_class == 15
    assert rows[(3, 2, 1, 1)].class_count == 210
    assert rows[(3, 2, 1, 1)].curves_per_class == 3
    assert rows[(2, 2, 2, 1)].class_count == 105
    assert rows[(2, 2, 2, 1)].curves_per_class == 1
    mixed = dict(rows[(4, 1, 1, 1)].curves_per_class_by_type)
    assert sorted(mixed.values()) == [3, 12]


def test_census_type_order_is_descending_count():
    for n in (6, 7):
        report = run_census(LabelSet.numbered(n))
        counts = [t.curve_count for t in report.types]
        assert counts == sorted(counts, reverse=True)


def test_census_totals_cross_check():
    for n in (4, 5, 6, 7):
        report = run_census(LabelSet.numbered(n))
        assert report.total_curves == sum(t.curve_count for t in report.types)
        assert report.total_curves == sum(
            c.class_count * c.curves_per_class for c in report.classes
        )
        assert report.total_classes == sum(c.class_count for c in report.classes)
        assert report.total_classes == stirling_4(n)


def test_census_is_deterministic():
    s = LabelSet.numbered(6)
    assert run_census(s) == run_census(s)


def test_census_rejects_bad_n():
    with pytest.raises(InvariantError):
        run_census(LabelSet.numbered(3))
    with pytest.raises(InvariantError):
        run_census(LabelSet.numbered(9), max_n=8)


def test_class_size_oracle_examples():
    s6 = LabelSet.numbered(6)
    assert class_size_oracle(DistinguishedPartition.of(s6, [[1], [2], [3], [4, 5, 6]])) == 3
    assert class_size_oracle(DistinguishedPartition.of(s6, [[1, 2], [3, 4], [5], [6]])) == 1
    s7 = LabelSet.numbered(7)
    assert class_size_oracle(DistinguishedPartition.of(s7, [[1, 2, 3, 4], [5], [6], [7]])) == 15
    s8 = LabelSet.numbered(8)
    assert (
        class_size_oracle(DistinguishedPartition.of(s8, [[1, 2, 3, 4, 5], [6], [7], [8]])) == 105
    )


def test_class_size_oracle_matches_enumeration():
    for n in (5, 6, 7):
        s = LabelSet.numbered(n)
        per_class: dict = {}
        for t in enumerate_curve_trees(s):
            pi = pi_of_tree(t)
            per_class[pi] = per_class.get(pi, 0) + 1
        for pi in enumerate_distinguished(s):
            assert per_class[pi] == class_size_oracle(pi)


def traced_peak_mib(fn):
    """Peak of the Python memory ``fn`` allocates while it runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_census_holds_one_curve_tree_at_a_time():
    s = LabelSet.numbered(8)
    run_census(s)  # fills the per-block family cache
    assert traced_peak_mib(lambda: run_census(s)) < 3
    assert traced_peak_mib(lambda: enumerate_curve_trees(s)) < 1


def test_classes_by_shape():
    got = classes_by_shape(LabelSet.numbered(7))
    assert got == {(4, 1, 1, 1): 35, (3, 2, 1, 1): 210, (2, 2, 2, 1): 105}
    for shape, count in got.items():
        assert count == multinomial_classes(7, shape)
    assert sum(got.values()) == stirling_4(7)


def test_classes_by_shape_n8():
    got = classes_by_shape(LabelSet.numbered(8))
    assert sum(got.values()) == stirling_4(8)
    for shape, count in got.items():
        assert count == multinomial_classes(8, shape)


def test_render_table_mentions_counts():
    text = render_table(run_census(LabelSet.numbered(6)))
    assert "105" in text and "65" in text
    assert "3+1+1+1" in text and "2+2+1+1" in text
