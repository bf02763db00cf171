"""Complete census of the one-dimensional boundary strata over a label set.

Every curve tree is enumerated, bucketed two ways: by unlabeled
combinatorial type, and by the 4-block partition naming its numerical
class.  Counts per class depend only on the block sizes, so classes are
reported grouped by shape.

Each shape's record takes its class count from the multinomial and its
curves per class from the product of (2b - 3)!! over its blocks.  The walk
checks them: the trees of one class arrive together, so the census keeps
the type breakdown of the current class only.  When the class ends its
tree count must equal the closed form, and its breakdown, hence its degree,
that of the first class of its shape; at the end each shape must have been
walked as many times as the multinomial says.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby

from ._base import _Record, _check_internal
from .partitions import (
    LabelSet,
    _format_shape,
    _require_labels,
    _shape_counts,
    enumerate_distinguished,  # noqa: F401  bench/spans.py patches this name
)
from .intersect import minus_k_closed
from .trees import (
    StableTree,
    _class_size,
    enumerate_curve_trees,
    make_tree,
    pi_of_tree,
    unlabeled_type_key,
)

__all__ = [
    "TypeRecord",
    "ClassShapeRecord",
    "CensusReport",
    "run_census",
    "classes_by_shape",
]


class TypeRecord(_Record):
    """One unlabeled combinatorial type of curve tree."""

    type_key: str
    name: str | None
    representative: StableTree
    curve_count: int
    minus_k: int


class ClassShapeRecord(_Record):
    """All curve classes sharing one multiset of block sizes."""

    shape: tuple[int, ...]
    class_count: int
    curves_per_class: int
    curves_per_class_by_type: tuple[tuple[str, int], ...]
    minus_k: int


class CensusReport(_Record):
    n: int
    types: tuple[TypeRecord, ...]
    classes: tuple[ClassShapeRecord, ...]
    total_curves: int
    total_classes: int

    def to_object(self) -> dict:
        """Plain-data form for structured serialization; each type carries its representative's."""
        return {
            "n": self.n,
            "totals": {"curves": self.total_curves, "classes": self.total_classes},
            "types": [
                {
                    "type_key": t.type_key,
                    "name": t.name,
                    "curve_count": t.curve_count,
                    "minus_k": t.minus_k,
                    "representative": t.representative.to_object(),
                }
                for t in self.types
            ],
            "classes": [
                {
                    "shape": list(c.shape),
                    "class_count": c.class_count,
                    "curves_per_class": c.curves_per_class,
                    "curves_per_class_by_type": dict(c.curves_per_class_by_type),
                    "minus_k": c.minus_k,
                }
                for c in self.classes
            ],
        }

    def to_tsv(self) -> str:
        """Tab-separated rows of types, then class shapes, then the totals, under one header."""
        lines = ["kind\tid\tcurve_count\tclass_count\tcurves_per_class\tminus_k"]
        for t in self.types:
            lines.append(f"type\t{t.name or t.type_key}\t{t.curve_count}\t\t\t{t.minus_k}")
        for c in self.classes:
            lines.append(
                f"class\t{_format_shape(c.shape)}\t{c.class_count * c.curves_per_class}"
                f"\t{c.class_count}\t{c.curves_per_class}\t{c.minus_k}"
            )
        lines.append(f"total\t\t{self.total_curves}\t{self.total_classes}\t\t")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Human-readable census table, one row per type and per class shape."""
        lines = [
            f"boundary curve census, n = {self.n}",
            f"total curves {self.total_curves}, total classes {self.total_classes}",
            "",
            "types:",
        ]
        head = f"  {'type':<24} {'name':<5} {'curves':>7} {'minus_k':>8}"
        lines.append(head)
        for t in self.types:
            name = t.name or "-"
            lines.append(f"  {t.type_key:<24} {name:<5} {t.curve_count:>7} {t.minus_k:>8}")
        lines.append("")
        lines.append("classes by shape:")
        lines.append(
            f"  {'shape':<12} {'classes':>8} {'curves/class':>13} {'minus_k':>8}"
        )
        for c in self.classes:
            lines.append(
                f"  {_format_shape(c.shape):<12} {c.class_count:>8}"
                f" {c.curves_per_class:>13} {c.minus_k:>8}"
            )
        return "\n".join(lines) + "\n"


def _n7_type_names() -> dict[str, str]:
    """Type keys of the four documented 7-label representatives.

    A and B are the two chains, C and D the two shapes with a trivalent
    branch vertex, in the traditional order.
    """
    s = LabelSet.numbered(7)
    chain = [(0, 1), (1, 2), (2, 3)]
    branch = [(0, 1), (1, 2), (1, 3)]
    reps = {
        "A": make_tree([[1, 2, 3], [4], [5], [6, 7]], chain, s),
        "B": make_tree([[1, 2], [3, 4], [5], [6, 7]], chain, s),
        "C": make_tree([[1, 2, 3], [], [4, 5], [6, 7]], branch, s),
        "D": make_tree([[1, 2], [3], [4, 5], [6, 7]], branch, s),
    }
    return {unlabeled_type_key(t): name for name, t in reps.items()}


def run_census(s: LabelSet, max_n: int | None = None) -> CensusReport:
    """Census of every curve tree over ``s``.

    Types are sorted by descending curve count, ties broken by type key;
    class records by descending shape.
    """
    type_counts: Counter[str] = Counter()
    type_rep: dict[str, StableTree] = {}
    type_minus_k: dict[str, int] = {}
    shape_walked: Counter[tuple[int, ...]] = Counter()
    shape_first: dict[tuple[int, ...], tuple] = {}  # breakdown and degree of its first class

    # A tree's degree is its class's, so it is computed once per class and
    # each type's degree is checked once per class it occurs in.
    for pi, trees in groupby(enumerate_curve_trees(s, max_n=max_n), key=pi_of_tree):
        degree = minus_k_closed(pi)
        bucket: dict[str, int] = {}
        for tree in trees:
            key = unlabeled_type_key(tree)
            if key not in bucket:
                type_rep.setdefault(key, tree)
                first_degree = type_minus_k.setdefault(key, degree)
                _check_internal(first_degree == degree, "type mixes degrees")
            bucket[key] = bucket.get(key, 0) + 1
        shape = pi.shape
        _check_internal(sum(bucket.values()) == _class_size(shape), "class tree count disagrees with its closed form")
        type_counts.update(bucket)
        breakdown = tuple(sorted(bucket.items()))
        shape_breakdown, _ = shape_first.setdefault(shape, (breakdown, degree))
        _check_internal(shape_breakdown == breakdown, "shape mixes breakdowns")
        shape_walked[shape] += 1

    counts = _shape_counts(s.n)
    _check_internal(shape_walked == counts, "class count per shape disagrees with its closed form")
    names = _n7_type_names() if s.n == 7 else {}
    types = tuple([
        TypeRecord(
            type_key=key,
            name=names.get(key),
            representative=type_rep[key],
            curve_count=type_counts[key],
            minus_k=type_minus_k[key],
        )
        for key in sorted(type_counts, key=lambda k: (-type_counts[k], k))
    ])
    records = tuple([
        ClassShapeRecord(shape, count, _class_size(shape), *shape_first[shape])
        for shape, count in counts.items()
    ])
    return CensusReport(
        n=s.n,
        types=types,
        classes=records,
        total_curves=sum(type_counts.values()),
        total_classes=sum(counts.values()),
    )


def classes_by_shape(s: LabelSet) -> dict[tuple[int, ...], int]:
    """How many 4-block partitions of ``s`` exist per block-size shape.

    Shapes come in descending order.  Each count is the multinomial
    n!/(prod b_i! * prod m_j!), m_j counting equal blocks, so no partition
    is enumerated.
    """
    _require_labels(s, 4)
    return _shape_counts(s.n)
