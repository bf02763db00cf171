"""Exact intersection pairings between boundary divisors and boundary curves.

A stable 2-partition sigma names a boundary divisor, a 4-block partition pi
names a boundary curve class, and their pairing is +1, -1 or 0 according to
how sigma sits against the blocks of pi.  All arithmetic is over the
integers and exact rationals; no floats appear anywhere.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterator

from ._base import InternalCheckError, InvariantError, _Record, _check_internal, _integer
from .partitions import (
    DistinguishedPartition,
    LabelSet,
    TwoPartition,
    _DistinguishedPartitions,
    _format_shape,
    _n_masks,
    _p_masks,
    _require_bound,
    _require_labels,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "IntersectionMatrix",
    "pair_divisor_curve",
    "minus_k_closed",
    "minus_k_divisor_coefficients",
    "minus_k_expanded",
    "k_plus_b_pairing",
    "picard_rank",
    "intersection_matrix",
    "matrix_rank",
]


def pair_divisor_curve(sigma: TwoPartition, pi: DistinguishedPartition) -> int:
    """Pairing of the divisor of ``sigma`` with the curve class of ``pi``.

    Returns +1 on the P-set of pi, -1 on its N-set, and 0 otherwise: the
    degree, by :func:`_degree`, of the divisor weighted 1 at sigma alone.
    """
    if sigma.label_set != pi.label_set:
        raise InvariantError("sigma and pi must use the same labels")
    _require_labels(sigma.label_set, 5)
    return _degree(lambda b: b == sigma.part_b_mask, 1, pi)


def _degree(coefficient: Callable[[int], int], denominator: int, pi: DistinguishedPartition) -> int:
    """Degree on the class of ``pi`` of the divisors weighted ``coefficient(b) / denominator`` by part b.

    Only the P-set (pairing +1) and the N-set (pairing -1) meet the curve, so
    the degree is the P-set sum minus the N-set sum, divided exactly.
    """
    total = sum(map(coefficient, _p_masks(pi))) - sum(map(coefficient, _n_masks(pi)))
    degree, rest = divmod(total, denominator)
    _check_internal(rest == 0, "expanded degree is not an integer")
    return degree


def minus_k_closed(pi: DistinguishedPartition) -> int:
    """Anticanonical degree of the curve class of ``pi``, closed form.

    Equals 2 minus the number of blocks with at least two labels.
    """
    return 2 - len(_n_masks(pi))


def _minus_k_numerator(n: int, part_b_mask: int) -> int:
    """Numerator over n - 1 of the anticanonical coefficient of the divisor with this part b.

    A part of j labels gives the coefficient 2 - j(n - j)/(n - 1); the
    formula is symmetric in the two parts.
    """
    j = part_b_mask.bit_count()
    return 2 * (n - 1) - j * (n - j)


def minus_k_divisor_coefficients(s: LabelSet) -> dict[TwoPartition, Fraction]:
    """Coefficients expressing the anticanonical class over the boundary divisors.

    The divisor of a 2-partition with part sizes j and n - j carries the
    coefficient 2 - j(n - j)/(n - 1).  Keys follow the canonical
    enumeration order, whose rows refuse more than ``DEFAULT_MAX_N`` labels.
    """
    from fractions import Fraction  # the one rational output; kept off the import path

    return {
        sigma: Fraction(_minus_k_numerator(s.n, sigma.part_b_mask), s.n - 1)
        for sigma in enumerate_stable_two_partitions(s)
    }


def pi_of_tree(t) -> DistinguishedPartition:
    # Kept only because bench/spans.py patches this name; nothing here calls it.
    from .trees import pi_of_tree

    return pi_of_tree(t)


def minus_k_expanded(pi: DistinguishedPartition) -> int:
    """Anticanonical degree recomputed through the divisor expansion.

    Sums the coefficients 2 - j(n - j)/(n - 1) over the divisors meeting
    the curve class, by :func:`_degree`.
    """
    _require_labels(pi.label_set, 5)
    n = pi.label_set.n
    return _degree(lambda b: _minus_k_numerator(n, b), n - 1, pi)


def k_plus_b_pairing(pi: DistinguishedPartition) -> int:
    """Pairing of the curve class with the canonical class plus the full boundary.

    Read off the P- and N-sets, the only divisors meeting the curve, so no
    divisor is enumerated and no enumeration bound applies.
    """
    _require_labels(pi.label_set, 5)
    return _degree(lambda b: 1, 1, pi) - minus_k_closed(pi)


def picard_rank(n: int) -> int:
    """Rank of the divisor class group of the n-label moduli space."""
    n = _integer(n, "label count")
    if n < 4:
        raise InvariantError(f"need at least 4 labels, got {n}")
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


class IntersectionMatrix(_Record):
    """The divisor-by-curve-class pairing table over one label set.

    Rows follow the canonical 2-partition order, columns the canonical
    4-block partition order.  Only the label set is stored, so the table is
    whole.  ``rows`` (under no bound of its own) and the dense ``entries`` are
    built on first use and kept; ``cols`` is the lazy, sized stream of
    :func:`enumerate_distinguished`, and :func:`matrix_rank` needs no entry.
    """

    label_set: LabelSet

    @cached_property
    def rows(self) -> tuple[TwoPartition, ...]:
        return tuple(enumerate_stable_two_partitions(self.label_set, self.label_set.n))

    @cached_property
    def cols(self) -> _DistinguishedPartitions:
        return enumerate_distinguished(self.label_set)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Every cell, row by row: +1 on P-members, -1 on N-members, else 0."""
        width = len(self.cols)
        cells = memoryview(bytearray(len(self.rows) * width)).cast("b")
        start = {sigma.part_b_mask: r * width for r, sigma in enumerate(self.rows)}
        for c, pi in enumerate(self.cols):
            for b in _p_masks(pi):
                cells[start[b] + c] = 1
            for b in _n_masks(pi):
                cells[start[b] + c] = -1
        return tuple([tuple(cells[i : i + width]) for i in range(0, len(cells), width)])

    def to_tsv(self) -> str:
        """Tab-separated table with a header row of column block shapes."""
        header = ["sigma"] + [_format_shape(c.shape) for c in self.cols]
        lines = ["\t".join(header)]
        for sigma, row in zip(self.rows, self.entries):
            lines.append("\t".join([sigma.literal()] + [str(x) for x in row]))
        return "\n".join(lines) + "\n"

    def to_object(self) -> dict:
        """Plain-data form for structured serialization; ``entries`` is the tuple of rows."""
        return {
            "row_keys": [sigma.literal() for sigma in self.rows],
            "col_keys": [pi.literal() for pi in self.cols],
            "col_shapes": [_format_shape(c.shape) for c in self.cols],
            "entries": self.entries,
        }


def intersection_matrix(s: LabelSet, max_n: int | None = None) -> IntersectionMatrix:
    """Pairing table of all boundary divisors against all curve classes.

    Refuses more than ``max_n`` labels and builds nothing: the rows are
    enumerated on first reading and the columns stay a lazy stream.  Each
    column holds +1 on its P-members and -1 on its N-members, read off its
    blocks when ``entries`` walks the stream.
    """
    _require_labels(s, 5)
    _require_bound(s, max_n)
    return IntersectionMatrix(s)


def _keel(k: int, l: int, b: int) -> int:
    """Coefficient of the divisor with part b in Keel's relation R(1, 2, k, l).

    k != l are the bit indices of two labels other than 1 and 2 (bits 0 and
    1).  The divisors separating {1, 2} from {k, l} count +1, those separating
    {1, k} from {2, l} count -1.  Both sums are the same class, so the
    relation pairs to zero with every curve class.
    """
    return (b >> k & b >> l & ~b >> 1 & 1) - (b >> 1 & b >> l & ~b >> k & 1)


def _basis_pairs(n: int) -> list[tuple[int, int]]:
    """Bit indices (k, l) of Keel's basis: R(1, 2, k, l) for 3 <= k < l <= n, then (l, 2) for 4 <= l <= n.

    A pair with k > l names R(1, 2, k, l) - R(1, 2, l, k), here
    R(1, 2, l, 3) - R(1, 2, 3, l): R(1, 2, l, 3) alone would share its lead
    {3, l} with R(1, 2, 3, l).  These n(n - 3)/2 relations are as many as
    the rows exceed the Picard rank.
    """
    return [(k, l) for l in range(3, n) for k in range(2, l)] + [(l, 2) for l in range(3, n)]


def _relation(k: int, l: int, b: int) -> int:
    """Coefficient of the divisor with part b in the basis relation named (k, l) by :func:`_basis_pairs`.

    On the pair rows R(1, 2, k, l) is e{k, l} - e{2, l}, leading at {k, l},
    and the difference e{2, l} - e{2, 3}, leading at {2, l}.
    """
    return _keel(k, l, b) - _keel(l, k, b) if k > l else _keel(k, l, b)


def _lead_classes(m: IntersectionMatrix) -> Iterator[tuple[int, DistinguishedPartition]]:
    """One curve class per lead row, built from the row alone, with the row's part-b mask.

    A part b of at least 3 labels, x < y the two smallest, leads the class
    A | x | y | b - {x, y}, with A the other part: every other P- or N-member
    is a proper subset of b, so a smaller mask.  Of the pair rows only
    {n - 1, n} leads, by the class 1 | 2..n-2 | n-1 | n.  That makes
    ``picard_rank(n)`` rows.
    """
    full = m.label_set.full_mask
    top = full ^ (full >> 2)
    for sigma in m.rows:
        b = sigma.part_b_mask
        x = b & -b
        y = (b ^ x) & -(b ^ x)
        if b.bit_count() >= 3:
            yield b, DistinguishedPartition(m.label_set, (full ^ b, x, y, b ^ x ^ y))
        elif b == top:
            yield b, DistinguishedPartition(m.label_set, (1, full ^ b ^ 1, x, y))


def _rank_bounds(m: IntersectionMatrix) -> tuple[int, int]:
    """A lower and an upper bound on the rational rank of ``m``, each built from the rows.

    Lower: the classes of :func:`_lead_classes`, each checked to lead at its
    own row.  Ordered by lead (as masks, not row indices), they are
    triangular with +1 or -1 on the diagonal, so independent.

    Upper: the rows minus the relations of :func:`_basis_pairs`, each
    checked to have its own lead on the pair rows, the largest part-b mask
    with a nonzero coefficient.  Ordered by lead they are triangular there,
    so independent, and the basis lies in the left kernel by one check:
    R(1, 2, 3, 4) pairs to zero with every class of min(n, 10) labels.  A
    relation's pairing depends only on which blocks hold 1, 2, k and l and
    which blocks hold at least 2 labels, since those decide which P- and
    N-members it counts.  Every such placement occurs at 10 labels: four
    labels, at most six more to fill the blocks, and any further label joins
    a block of at least 2.  A relabelling that fixes 1 and 2 carries
    R(1, 2, 3, 4) to every other R(1, 2, k, l), and the classes onto the
    classes; the differences follow by linearity.
    """
    n = m.label_set.n
    r1234 = partial(_keel, 2, 3)
    for pi in m.cols if n <= 10 else enumerate_distinguished(LabelSet.numbered(10)):
        _check_internal(_degree(r1234, 1, pi) == 0, "a Keel relation pairs nonzero with a curve class")
    lower = 0
    for b, pi in _lead_classes(m):
        if max(_p_masks(pi) + _n_masks(pi)) != b:
            raise InternalCheckError(f"{pi.literal()} does not lead at its row")
        lower += 1
    pairs = [sigma.part_b_mask for sigma in m.rows if sigma.part_b_mask.bit_count() == 2]
    basis = _basis_pairs(n)
    leads = {max([b for b in pairs if _relation(k, l, b)], default=0) for k, l in basis} - {0}
    _check_internal(len(leads) == len(basis), "Keel relations lack distinct leads on the pair rows")
    return lower, len(m.rows) - len(basis)


def matrix_rank(m: IntersectionMatrix) -> int:
    """Exact rank of a pairing matrix, certified from its rows.

    Walks at most the classes of 10 labels: one lead class per lead row
    bounds the rank from below, and an explicit basis of Keel's relations,
    one lead per relation, bounds it from above.  The two must meet, or
    :class:`InternalCheckError` names both.
    """
    lower, upper = _rank_bounds(m)
    _check_internal(lower == upper, f"rank bounds differ: {lower} distinct leads, Keel bound {upper}")
    return lower
