"""Complete census of the one-dimensional boundary strata over a label set.

Every curve tree is enumerated, bucketed two ways: by unlabeled
combinatorial type, and by the 4-block partition naming its numerical
class.  Counts per class depend only on the block sizes, so classes are
reported grouped by shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    _check_internal,
    _require_bound,
    _require_labels,
    enumerate_distinguished,
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
    "class_size_oracle",
    "classes_by_shape",
    "render_table",
]


@dataclass(frozen=True)
class TypeRecord:
    """One unlabeled combinatorial type of curve tree."""

    type_key: str
    name: str | None
    representative: StableTree
    curve_count: int
    minus_k: int


@dataclass(frozen=True)
class ClassShapeRecord:
    """All curve classes sharing one multiset of block sizes."""

    shape: tuple[int, ...]
    class_count: int
    curves_per_class: int
    curves_per_class_by_type: tuple[tuple[str, int], ...]
    minus_k: int


@dataclass(frozen=True)
class CensusReport:
    n: int
    types: tuple[TypeRecord, ...]
    classes: tuple[ClassShapeRecord, ...]
    total_curves: int
    total_classes: int


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
    _require_labels(s, 4)
    _require_bound(s, max_n)

    type_counts: dict[str, int] = {}
    type_rep: dict[str, StableTree] = {}
    type_minus_k: dict[str, int] = {}
    class_breakdown: dict[DistinguishedPartition, dict[str, int]] = {}

    for tree in enumerate_curve_trees(s, max_n=max_n):
        pi = pi_of_tree(tree)
        key = unlabeled_type_key(tree)
        type_counts[key] = type_counts.get(key, 0) + 1
        if key not in type_rep:
            type_rep[key] = tree
            type_minus_k[key] = minus_k_closed(pi)
        else:
            _check_internal(type_minus_k[key] == minus_k_closed(pi), "type mixes degrees")
        bucket = class_breakdown.setdefault(pi, {})
        bucket[key] = bucket.get(key, 0) + 1

    names = _n7_type_names() if s.n == 7 else {}
    types = tuple(
        TypeRecord(
            type_key=key,
            name=names.get(key),
            representative=type_rep[key],
            curve_count=type_counts[key],
            minus_k=type_minus_k[key],
        )
        for key in sorted(type_counts, key=lambda k: (-type_counts[k], k))
    )

    shape_classes: dict[tuple[int, ...], list[DistinguishedPartition]] = {}
    for pi in class_breakdown:
        shape_classes.setdefault(pi.shape, []).append(pi)
    records = []
    for shape in sorted(shape_classes, reverse=True):
        members = shape_classes[shape]
        breakdowns = [
            tuple(sorted(class_breakdown[pi].items())) for pi in members
        ]
        _check_internal(
            all(b == breakdowns[0] for b in breakdowns), "shape mixes breakdowns"
        )
        degrees = {minus_k_closed(pi) for pi in members}
        _check_internal(len(degrees) == 1, "shape mixes degrees")
        per_class = sum(count for _, count in breakdowns[0])
        records.append(
            ClassShapeRecord(
                shape=shape,
                class_count=len(members),
                curves_per_class=per_class,
                curves_per_class_by_type=breakdowns[0],
                minus_k=degrees.pop(),
            )
        )

    total_curves = sum(type_counts.values())
    total_classes = len(class_breakdown)
    _check_internal(
        total_curves == sum(r.class_count * r.curves_per_class for r in records),
        "type and class totals disagree",
    )
    return CensusReport(
        n=s.n,
        types=types,
        classes=tuple(records),
        total_curves=total_curves,
        total_classes=total_classes,
    )


def class_size_oracle(pi: DistinguishedPartition) -> int:
    """Number of curve trees in the class of ``pi``, by closed formula.

    Each block with k >= 2 labels contributes the double factorial
    (2k - 3)!!, the count of rooted trivalent trees on k tails; blocks
    multiply independently.  The same formula gives the length of
    :func:`enumerate_curve_trees`.
    """
    return _class_size(pi)


def classes_by_shape(s: LabelSet, max_n: int | None = None) -> dict[tuple[int, ...], int]:
    """How many 4-block partitions of ``s`` exist per block-size shape."""
    _require_labels(s, 4)
    _require_bound(s, max_n)
    out: dict[tuple[int, ...], int] = {}
    for pi in enumerate_distinguished(s, max_n=max_n):
        out[pi.shape] = out.get(pi.shape, 0) + 1
    return dict(sorted(out.items(), reverse=True))


def render_table(report: CensusReport) -> str:
    """Human-readable census table, one row per type and per class shape."""
    lines = [
        f"boundary curve census, n = {report.n}",
        f"total curves {report.total_curves}, total classes {report.total_classes}",
        "",
        "types:",
    ]
    head = f"  {'type':<24} {'name':<5} {'curves':>7} {'minus_k':>8}"
    lines.append(head)
    for t in report.types:
        name = t.name or "-"
        lines.append(f"  {t.type_key:<24} {name:<5} {t.curve_count:>7} {t.minus_k:>8}")
    lines.append("")
    lines.append("classes by shape:")
    lines.append(
        f"  {'shape':<12} {'classes':>8} {'curves/class':>13} {'minus_k':>8}"
    )
    for c in report.classes:
        shape = "+".join(str(b) for b in c.shape)
        lines.append(
            f"  {shape:<12} {c.class_count:>8} {c.curves_per_class:>13} {c.minus_k:>8}"
        )
    return "\n".join(lines) + "\n"
