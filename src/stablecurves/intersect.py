"""Exact intersection pairings between boundary divisors and boundary curves.

A stable 2-partition sigma names a boundary divisor, a 4-block partition pi
names a boundary curve class, and their pairing is +1, -1 or 0 according to
how sigma sits against the blocks of pi.  All arithmetic is over the
integers and exact rationals; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .partitions import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    _format_shape,
    _require_bound,
    _require_labels,
    c_weight,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    n_set,
    p_set,
)
from .trees import StableTree, pi_of_tree

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
    "virtual_dimension",
]


def pair_divisor_curve(sigma: TwoPartition, pi: DistinguishedPartition) -> int:
    """Pairing of the divisor of ``sigma`` with the curve class of ``pi``.

    Returns +1 on the P-set of pi, -1 on its N-set, and 0 otherwise.
    """
    if sigma.label_set != pi.label_set:
        raise InvariantError("mismatched label sets")
    _require_labels(sigma.label_set, 5)
    if sigma in p_set(pi):
        return 1
    if sigma in n_set(pi):
        return -1
    return 0


def minus_k_closed(pi: DistinguishedPartition) -> int:
    """Anticanonical degree of the curve class of ``pi``, closed form.

    Equals 2 minus the number of blocks with at least two labels.
    """
    return 2 - len(n_set(pi))


def _minus_k_coefficient(sigma: TwoPartition) -> Fraction:
    """Coefficient of the divisor of ``sigma`` in the anticanonical class."""
    return 2 - Fraction(c_weight(sigma), sigma.label_set.n - 1)


def minus_k_divisor_coefficients(s: LabelSet, max_n: int | None = None) -> dict[TwoPartition, Fraction]:
    """Coefficients expressing the anticanonical class over the boundary divisors.

    The divisor of a 2-partition with part sizes j and n - j carries the
    coefficient 2 - j(n - j)/(n - 1).  Keys follow the canonical
    enumeration order.
    """
    _require_labels(s, 4)
    return {
        sigma: _minus_k_coefficient(sigma)
        for sigma in enumerate_stable_two_partitions(s, max_n=max_n)
    }


def minus_k_expanded(pi_or_tree: DistinguishedPartition | StableTree) -> Fraction:
    """Anticanonical degree recomputed through the divisor expansion.

    Sums the coefficient-weighted pairings over the divisors meeting the
    curve class; only those in the P- and N-sets contribute.  A curve tree
    is accepted and reduced to its 4-block partition first.  The result is
    always an integer-valued rational and must match the closed form.
    """
    pi = pi_of_tree(pi_or_tree) if isinstance(pi_or_tree, StableTree) else pi_or_tree
    _require_labels(pi.label_set, 5)
    plus = sum(map(_minus_k_coefficient, p_set(pi)), Fraction(0))
    return plus - sum(map(_minus_k_coefficient, n_set(pi)), Fraction(0))


def k_plus_b_pairing(pi: DistinguishedPartition) -> int:
    """Pairing of the curve class with the canonical class plus the full boundary.

    Read off the P- and N-sets, the only divisors meeting the curve, so no
    divisor is enumerated and no enumeration bound applies.
    """
    _require_labels(pi.label_set, 5)
    return len(p_set(pi)) - len(n_set(pi)) - minus_k_closed(pi)


def picard_rank(n: int) -> int:
    """Rank of the divisor class group of the n-label moduli space."""
    if n < 4:
        raise InvariantError(f"need at least 4 labels, got {n}")
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


@dataclass(frozen=True)
class IntersectionMatrix:
    """The full divisor-by-curve-class pairing table over one label set.

    Rows follow the canonical 2-partition order, columns the canonical
    4-block partition order.
    """

    label_set: LabelSet
    rows: tuple[TwoPartition, ...]
    cols: tuple[DistinguishedPartition, ...]
    entries: tuple[tuple[int, ...], ...]

    def to_tsv(self) -> str:
        """Tab-separated table with a header row of column block shapes."""
        header = ["sigma"] + [_format_shape(c.shape) for c in self.cols]
        lines = ["\t".join(header)]
        for sigma, row in zip(self.rows, self.entries):
            lines.append("\t".join([sigma.literal()] + [str(x) for x in row]))
        return "\n".join(lines) + "\n"

    def to_object(self) -> dict:
        """Plain-data form for structured serialization."""
        return {
            "row_keys": [sigma.literal() for sigma in self.rows],
            "col_keys": [pi.literal() for pi in self.cols],
            "col_shapes": [_format_shape(c.shape) for c in self.cols],
            "entries": [list(row) for row in self.entries],
        }


def intersection_matrix(s: LabelSet, max_n: int | None = None) -> IntersectionMatrix:
    """Pairing table of all boundary divisors against all curve classes.

    Only each column's P-members (+1) and N-members (-1) are written.
    """
    _require_labels(s, 5)
    _require_bound(s, max_n)
    rows = tuple(enumerate_stable_two_partitions(s, max_n=max_n))
    cols = tuple(enumerate_distinguished(s, max_n=max_n))
    width = len(cols)
    start = {sigma.part_b_mask: r * width for r, sigma in enumerate(rows)}
    cells = memoryview(bytearray(len(rows) * width)).cast("b")
    for c, pi in enumerate(cols):
        for sigma in p_set(pi):
            cells[start[sigma.part_b_mask] + c] = 1
        for sigma in n_set(pi):
            cells[start[sigma.part_b_mask] + c] = -1
    entries = tuple(tuple(cells[i : i + width]) for i in range(0, len(cells), width))
    return IntersectionMatrix(s, rows, cols, entries)


def matrix_rank(m: IntersectionMatrix | Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Uses Bareiss pivoting over arbitrary-precision integers, scanning
    columns in order and taking the first nonzero pivot, so the result is
    deterministic and free of rounding.
    """
    work = [list(r) for r in (m.entries if isinstance(m, IntersectionMatrix) else m)]
    if not work:
        return 0
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise InvariantError("ragged matrix")
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        lead = work[rank]
        for r in range(rank + 1, len(work)):
            row = work[r]
            factor = row[col]
            # Every row below is rescaled even when factor is zero; the
            # exactness of the later divisions depends on it.
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - factor * lead[j]) // prev
        prev = pivot
        rank += 1
        if rank == len(work):
            break
    return rank


def virtual_dimension(genus: int, sigma_size: int, target_dim: int, minus_k_beta: int) -> int:
    """Expected dimension of a space of stable maps with marked points.

    Adds the anticanonical degree of the class, the number of markings, and
    (target dimension - 3) times (1 - genus).
    """
    if genus < 0:
        raise InvariantError("genus must be nonnegative")
    if sigma_size < 0:
        raise InvariantError("marking count must be nonnegative")
    return minus_k_beta + sigma_size + (target_dim - 3) * (1 - genus)
