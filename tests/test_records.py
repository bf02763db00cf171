"""The value-record contract every package object keeps.

Records are immutable, built positionally or by keyword in field order,
equal only to records of the same class with equal fields, hashed as the
tuple of their fields, and printed as ``Name(field=value, ...)``.  The
validation hook ``__post_init__`` is looked up on the class at every
construction, so patching it there intercepts them all.
"""

from __future__ import annotations

import pytest

import stablecurves
from stablecurves import (
    CensusReport,
    ClassShapeRecord,
    CurveTrees,
    DistinguishedPartition,
    IntersectionMatrix,
    LabelSet,
    PartitionSetSignature,
    StableTree,
    TwoPartition,
    TypeRecord,
    enumerate_curve_trees,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    intersection_matrix,
    make_tree,
    n_set,
    p_set,
    run_census,
    signature,
)
from stablecurves._base import _Record
from stablecurves.partitions import _DistinguishedPartitions

FIELDS = {
    LabelSet: ("labels",),
    TwoPartition: ("label_set", "part_b_mask"),
    DistinguishedPartition: ("label_set", "block_masks"),
    StableTree: ("label_set", "cuts"),
    PartitionSetSignature: ("label_set", "partitions"),
    IntersectionMatrix: ("label_set", "rows", "cols"),
    TypeRecord: ("type_key", "name", "representative", "curve_count", "minus_k"),
    ClassShapeRecord: ("shape", "class_count", "curves_per_class", "curves_per_class_by_type", "minus_k"),
    CensusReport: ("n", "types", "classes", "total_curves", "total_classes"),
    _DistinguishedPartitions: ("label_set",),
    CurveTrees: ("classes",),
}


def one_of_each():
    s = LabelSet.numbered(6)
    tree = make_tree([[1, 2], [3], [4, 5, 6]], [(0, 1), (1, 2)], s)
    report = run_census(LabelSet.numbered(5))
    stream = enumerate_distinguished(s)
    return [
        s,
        TwoPartition(s, 0b001100),
        DistinguishedPartition(s, (0b000011, 0b000100, 0b011000, 0b100000)),
        tree,
        signature(tree),
        intersection_matrix(LabelSet.numbered(5)),
        report.types[0],
        report.classes[0],
        report,
        stream,
        enumerate_curve_trees(s),
    ]


each_record = pytest.mark.parametrize("x", one_of_each(), ids=lambda x: type(x).__name__)


def test_every_exported_class_is_a_record():
    # So the generic tests below cover every class the package exports.
    exported = [getattr(stablecurves, name) for name in stablecurves.__all__]
    classes = [x for x in exported if isinstance(x, type) and not issubclass(x, BaseException)]
    outside = [c.__name__ for c in classes if not issubclass(c, _Record) or c not in FIELDS]
    assert not outside
    assert {type(x) for x in one_of_each()} == set(FIELDS)


def field_values(x):
    names = FIELDS[type(x)]
    return names, tuple(getattr(x, f) for f in names)


@each_record
def test_fields_are_frozen(x):
    names, values = field_values(x)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert field_values(x) == (names, values)


@each_record
def test_equal_fields_give_equal_records_and_hashes(x):
    cls = type(x)
    names, values = field_values(x)
    positional = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for y in (positional, by_keyword):
        assert y == x and not y != x
        assert hash(y) == hash(x) == hash(values)
    assert x.__eq__(values) is NotImplemented
    assert x != values


@each_record
def test_repr_names_every_field(x):
    names, values = field_values(x)
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
    assert repr(x) == f"{type(x).__name__}({inner})"


@each_record
def test_wrong_arguments_raise_type_error(x):
    cls = type(x)
    names, values = field_values(x)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=values[-1])


def test_pinned_reprs():
    s = LabelSet.numbered(4)
    assert repr(LabelSet.numbered(3)) == "LabelSet(labels=(1, 2, 3))"
    assert repr(TwoPartition(s, 0b1100)) == (
        "TwoPartition(label_set=LabelSet(labels=(1, 2, 3, 4)), part_b_mask=12)"
    )
    assert repr(StableTree(s, (12,))) == (
        "StableTree(label_set=LabelSet(labels=(1, 2, 3, 4)), cuts=(12,))"
    )
    assert repr(DistinguishedPartition(s, (1, 2, 4, 8))) == (
        "DistinguishedPartition(label_set=LabelSet(labels=(1, 2, 3, 4)), block_masks=(1, 2, 4, 8))"
    )
    record = ClassShapeRecord(
        shape=(1, 1, 1, 1), class_count=1, curves_per_class=1, curves_per_class_by_type=(("0", 1),), minus_k=-1
    )
    assert repr(record) == (
        "ClassShapeRecord(shape=(1, 1, 1, 1), class_count=1, curves_per_class=1,"
        " curves_per_class_by_type=(('0', 1),), minus_k=-1)"
    )


def test_records_of_different_classes_differ():
    s = LabelSet.numbered(6)
    sig = PartitionSetSignature(s, ())
    tree = StableTree(s, ())
    assert (sig.label_set, sig.partitions) == (tree.label_set, tree.cuts)
    assert sig != tree and tree != sig
    assert hash(sig) == hash(tree)
    assert len({sig, tree}) == 2


def test_census_records_build_by_keyword():
    s = LabelSet.numbered(4)
    rep = StableTree(s, ())
    t = TypeRecord(type_key="k", name=None, representative=rep, curve_count=1, minus_k=-1)
    assert (t.type_key, t.name, t.representative, t.curve_count, t.minus_k) == ("k", None, rep, 1, -1)
    c = ClassShapeRecord(
        shape=(1, 1, 1, 1), class_count=1, curves_per_class=1, curves_per_class_by_type=(("k", 1),), minus_k=-1
    )
    report = CensusReport(n=4, types=(t,), classes=(c,), total_curves=1, total_classes=1)
    assert report == CensusReport(4, (t,), (c,), 1, 1)
    assert report != CensusReport(4, (t,), (c,), 1, 2)


def count_hook(monkeypatch, cls):
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def test_patched_post_init_sees_every_construction(monkeypatch):
    s = LabelSet.numbered(6)
    four = count_hook(monkeypatch, DistinguishedPartition)
    two = count_hook(monkeypatch, TwoPartition)
    classes = list(enumerate_distinguished(s))
    assert len(four) == len(classes)
    assert four == classes
    assert len(enumerate_stable_two_partitions(s)) == len(two)
    del two[:]
    pi = classes[-1]
    built = p_set(pi) + n_set(pi) + (TwoPartition.of(s, [1, 2]),)
    assert two == list(built)
    del four[:]
    assert DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]]) == four[0]


def test_patched_post_init_can_refuse(monkeypatch):
    def refuse(self):
        raise RuntimeError("refused")

    monkeypatch.setattr(TwoPartition, "__post_init__", refuse)
    with pytest.raises(RuntimeError, match="refused"):
        TwoPartition(LabelSet.numbered(4), 0b1100)
