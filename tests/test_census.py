"""Census layer: per-type and per-class bookkeeping over all curve trees."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import stablecurves
from stablecurves import (
    ClassShapeRecord,
    CensusReport,
    InternalCheckError,
    InvariantError,
    LabelSet,
    TypeRecord,
    classes_by_shape,
    enumerate_curve_trees,
    enumerate_distinguished,
    minus_k_closed,
    pi_of_tree,
    run_census,
    unlabeled_type_key,
)
from stablecurves import census as census_module

from _support import odd_product_class_size, run_python, traced_peak_mib


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


def test_census_rejects_bad_n():
    with pytest.raises(InvariantError):
        run_census(LabelSet.numbered(3))
    with pytest.raises(InvariantError):
        run_census(LabelSet.numbered(9), max_n=8)


def test_census_holds_one_curve_tree_at_a_time():
    s = LabelSet.numbered(8)
    run_census(s)  # fills the per-size family memo
    assert traced_peak_mib(lambda: run_census(s)) < 3
    assert traced_peak_mib(lambda: enumerate_curve_trees(s)) < 1


def test_classes_by_shape_matches_a_count_over_the_classes():
    for n in range(4, 10):
        s = LabelSet.numbered(n)
        counted: dict = {}
        for pi in enumerate_distinguished(s):
            counted[pi.shape] = counted.get(pi.shape, 0) + 1
        got = classes_by_shape(s)
        assert list(got.items()) == sorted(counted.items(), reverse=True)
    # A closed form: no enumeration bound applies.
    s = LabelSet.numbered(20)
    assert sum(classes_by_shape(s).values()) == len(enumerate_distinguished(s, max_n=20))


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


def test_census_heap_in_a_fresh_interpreter():
    # The census holds the current class, one class bucket, one breakdown
    # per shape and one family memo entry per block size: about 0.03 MiB.
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
    # blocks for the census at n = 8 and 140 for the rank at n = 10.
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
