"""Census layer: per-type and per-class bookkeeping over all curve trees."""

from __future__ import annotations

import ast
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

import stablecurves
from stablecurves import (
    ClassShapeRecord,
    CensusReport,
    DistinguishedPartition,
    InternalCheckError,
    InvariantError,
    LabelSet,
    TypeRecord,
    classes_by_shape,
    enumerate_curve_trees,
    enumerate_distinguished,
    enumerate_trees,
    minus_k_closed,
    pi_of_tree,
    render_table,
    run_census,
    unlabeled_type_key,
)
from stablecurves import census as census_module

from _support import odd_product_class_size, run_python, stirling_4


def multinomial_classes(n, shape):
    """Number of 4-block partitions with the given size multiset."""
    total = math.factorial(n)
    for b in shape:
        total //= math.factorial(b)
    from collections import Counter

    for repeats in Counter(shape).values():
        total //= math.factorial(repeats)
    return total


def census_by_class_dicts(s):
    """Census oracle: every class keeps its own breakdown until all trees are read."""
    type_counts, type_rep, type_minus_k = {}, {}, {}
    class_breakdown = {}
    for tree in enumerate_curve_trees(s):
        pi = pi_of_tree(tree)
        key = unlabeled_type_key(tree)
        type_counts[key] = type_counts.get(key, 0) + 1
        if key not in type_rep:
            type_rep[key] = tree
            type_minus_k[key] = minus_k_closed(pi)
        assert type_minus_k[key] == minus_k_closed(pi)
        bucket = class_breakdown.setdefault(pi, {})
        bucket[key] = bucket.get(key, 0) + 1

    names = census_module._n7_type_names() if s.n == 7 else {}
    types = tuple(
        TypeRecord(key, names.get(key), type_rep[key], type_counts[key], type_minus_k[key])
        for key in sorted(type_counts, key=lambda k: (-type_counts[k], k))
    )
    shape_classes = {}
    for pi in class_breakdown:
        shape_classes.setdefault(pi.shape, []).append(pi)
    records = []
    for shape in sorted(shape_classes, reverse=True):
        members = shape_classes[shape]
        breakdowns = {tuple(sorted(class_breakdown[pi].items())) for pi in members}
        degrees = {minus_k_closed(pi) for pi in members}
        assert len(breakdowns) == 1 and len(degrees) == 1
        (breakdown,) = breakdowns
        per_class = sum(count for _, count in breakdown)
        records.append(ClassShapeRecord(shape, len(members), per_class, breakdown, degrees.pop()))
    return CensusReport(s.n, types, tuple(records), sum(type_counts.values()), len(class_breakdown))


def test_census_matches_the_class_dict_oracle():
    for n in range(4, 9):
        s = LabelSet.numbered(n)
        assert run_census(s) == census_by_class_dicts(s)


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


def brute_class_sizes(s):
    """Curves per class, counted over the generic stratum enumerator (n <= 7)."""
    sizes: dict = {}
    for t in enumerate_trees(s, s.n - 4):
        pi = pi_of_tree(t)
        sizes[pi] = sizes.get(pi, 0) + 1
    return sizes


def test_class_size_oracle_examples():
    s6 = LabelSet.numbered(6)
    s7 = LabelSet.numbered(7)
    examples = [
        (DistinguishedPartition.of(s6, [[1], [2], [3], [4, 5, 6]]), 3),
        (DistinguishedPartition.of(s6, [[1, 2], [3, 4], [5], [6]]), 1),
        (DistinguishedPartition.of(s7, [[1, 2, 3, 4], [5], [6], [7]]), 15),
    ]
    for pi, size in examples:
        assert brute_class_sizes(pi.label_set)[pi] == odd_product_class_size(pi) == size
    s8 = LabelSet.numbered(8)
    assert odd_product_class_size(DistinguishedPartition.of(s8, [[1, 2, 3, 4, 5], [6], [7], [8]])) == 105


def test_class_size_oracle_matches_enumeration():
    for n in (5, 6, 7):
        s = LabelSet.numbered(n)
        per_class: dict = {}
        for t in enumerate_curve_trees(s):
            pi = pi_of_tree(t)
            per_class[pi] = per_class.get(pi, 0) + 1
        assert per_class == brute_class_sizes(s)
        for pi in enumerate_distinguished(s):
            assert per_class[pi] == odd_product_class_size(pi)


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
    run_census(s)  # fills the per-size family memo
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


def test_classes_by_shape_matches_a_count_over_the_classes():
    for n in range(4, 10):
        s = LabelSet.numbered(n)
        counted: dict = {}
        for pi in enumerate_distinguished(s):
            counted[pi.shape] = counted.get(pi.shape, 0) + 1
        got = classes_by_shape(s)
        assert list(got.items()) == sorted(counted.items(), reverse=True)
    with pytest.raises(InvariantError):
        classes_by_shape(LabelSet.numbered(9), max_n=8)


def test_render_table_mentions_counts():
    text = render_table(run_census(LabelSet.numbered(6)))
    assert "105" in text and "65" in text
    assert "3+1+1+1" in text and "2+2+1+1" in text


EXPECTED = Path(__file__).parent / "expected"


def test_census_report_to_tsv_is_the_pinned_table():
    report = run_census(LabelSet.numbered(7))
    assert report.to_tsv().encode() == (EXPECTED / "census-n7.tsv").read_bytes()


def test_census_report_to_object_is_the_pinned_result():
    pinned = json.loads((EXPECTED / "census-n7.json").read_text(encoding="utf-8"))
    assert run_census(LabelSet.numbered(7)).to_object() == pinned["result"]


def census_trees_with(monkeypatch, edit):
    """Feed the census the curve trees at n = 7 as ``edit`` rearranges them."""
    trees = list(enumerate_curve_trees(LabelSet.numbered(7)))
    edit(trees)
    monkeypatch.setattr(census_module, "enumerate_curve_trees", lambda s, max_n=None: trees)


def first_tree_of_a_larger_class(trees):
    return next(i for i, t in enumerate(trees) if odd_product_class_size(pi_of_tree(t)) > 1)


def test_census_rejects_a_short_class(monkeypatch):
    census_trees_with(monkeypatch, lambda trees: trees.pop(first_tree_of_a_larger_class(trees)))
    with pytest.raises(InternalCheckError, match="closed form"):
        run_census(LabelSet.numbered(7))


def test_census_rejects_a_class_split_into_two_runs(monkeypatch):
    census_trees_with(
        monkeypatch, lambda trees: trees.append(trees.pop(first_tree_of_a_larger_class(trees)))
    )
    with pytest.raises(InternalCheckError, match="closed form"):
        run_census(LabelSet.numbered(7))


def drop_first_class(trees):
    pi = pi_of_tree(trees[0])
    trees[:] = [t for t in trees if pi_of_tree(t) != pi]


def repeat_last_class(trees):
    pi = pi_of_tree(trees[-1])
    trees[:0] = [t for t in trees if pi_of_tree(t) == pi]


@pytest.mark.parametrize("edit", [drop_first_class, repeat_last_class])
def test_census_rejects_a_missing_or_repeated_class(monkeypatch, edit):
    # Every class walked is whole, so only the per-shape class count sees it.
    census_trees_with(monkeypatch, edit)
    with pytest.raises(InternalCheckError, match="^class count per shape disagrees"):
        run_census(LabelSet.numbered(7))


def test_census_rejects_a_shape_with_mixed_breakdowns(monkeypatch):
    s = LabelSet.numbered(7)
    odd = next(pi for pi in enumerate_distinguished(s) if pi.shape == (4, 1, 1, 1))
    real = census_module.unlabeled_type_key

    def key_of(tree):
        return "odd" if pi_of_tree(tree) == odd else real(tree)

    monkeypatch.setattr(census_module, "unlabeled_type_key", key_of)
    with pytest.raises(InternalCheckError, match="shape mixes breakdowns"):
        run_census(s)


def test_census_rejects_a_short_class_under_optimize():
    # A class holds more than one curve when some block has at least 3 labels.
    script = (
        "from stablecurves import LabelSet, census\n"
        "trees = list(census.enumerate_curve_trees(LabelSet.numbered(6)))\n"
        "i = next(i for i, t in enumerate(trees) if max(census.pi_of_tree(t).shape) >= 3)\n"
        "del trees[i]\n"
        "census.enumerate_curve_trees = lambda s, max_n=None: trees\n"
        "census.run_census(LabelSet.numbered(6))\n"
    )
    done = run_python("-O", "-c", script)
    assert done.returncode == 1
    assert b"InternalCheckError: class tree count disagrees with its closed form" in done.stderr


def test_census_heap_in_a_fresh_interpreter():
    # The census holds the current class, one class bucket, one breakdown
    # per shape and one family memo entry per block size: 0.03 MiB.  Tuples
    # of unknown length left a free-list backlog that made it 0.39 MiB, a
    # copy of each block's family remapped to its bits per class peaked at
    # 0.69 MiB, the materialised class list added 0.3 MiB, and a breakdown
    # dict per class with a family memo entry per block mask peaked at 1.7 MiB.
    script = (
        "import tracemalloc\n"
        "from stablecurves import LabelSet, run_census\n"
        "s = LabelSet.numbered(8)\n"
        "tracemalloc.start()\n"
        "run_census(s)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / 2**20 < 0.25


def unsized_tuple_builds(source):
    """Lines that build a tuple from an iterator of unknown length."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id in {"map", "filter", "zip"}
            ):
                lines.append(node.lineno)
        lines += [node.lineno for a in node.args if isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp)]
    return lines


def test_every_tuple_is_built_at_its_exact_size():
    # CPython builds a tuple of unknown length in 10 slots and shrinks it.
    # Freed, it joins the free list of its final size, which the next such
    # build never draws from, so each size's list fills up to 2,000 tuples
    # that only a full collection releases.  A list, or a starred list in a
    # call, has its length.
    package = Path(stablecurves.__file__).resolve().parent
    found = {p.name: unsized_tuple_builds(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="measures CPython's tuple free lists")
@pytest.mark.parametrize(
    "run", ["run_census(LabelSet.numbered(8))", "matrix_rank(intersection_matrix(LabelSet.numbered(10)))"]
)
def test_a_warm_walk_leaves_no_tuple_free_list_backlog(run):
    # What a full collection releases after a warm second run: about 250
    # blocks for the census at n = 8 and 140 for the rank at n = 10.  When
    # tuples of unknown length filled one free list per size, about 5,600
    # and 6,300.
    script = (
        "import gc, sys\n"
        "from stablecurves import LabelSet, intersection_matrix, matrix_rank, run_census\n"
        f"{run}\n"
        "gc.collect()\n"
        f"{run}\n"
        "before = sys.getallocatedblocks()\n"
        "gc.collect()\n"
        "print(before - sys.getallocatedblocks())\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1000
