"""Exact intersection pairings between boundary divisors and boundary curves.

A stable 2-partition sigma names a boundary divisor, a 4-block partition pi
names a boundary curve class, and their pairing is +1, -1 or 0 according to
how sigma sits against the blocks of pi.  All arithmetic is over the
integers and exact rationals; no floats appear anywhere.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from typing import TYPE_CHECKING, Iterator, Sequence

from .partitions import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    _Record,
    _check_internal,
    _format_shape,
    _n_masks,
    _p_masks,
    _require_labels,
    bits_of,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
)
from .trees import StableTree, pi_of_tree

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
    "virtual_dimension",
]


def pair_divisor_curve(sigma: TwoPartition, pi: DistinguishedPartition) -> int:
    """Pairing of the divisor of ``sigma`` with the curve class of ``pi``.

    Returns +1 on the P-set of pi, -1 on its N-set, and 0 otherwise.
    """
    if sigma.label_set != pi.label_set:
        raise InvariantError("mismatched label sets")
    _require_labels(sigma.label_set, 5)
    if sigma.part_b_mask in _p_masks(pi):
        return 1
    if sigma.part_b_mask in _n_masks(pi):
        return -1
    return 0


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


def minus_k_divisor_coefficients(s: LabelSet, max_n: int | None = None) -> dict[TwoPartition, Fraction]:
    """Coefficients expressing the anticanonical class over the boundary divisors.

    The divisor of a 2-partition with part sizes j and n - j carries the
    coefficient 2 - j(n - j)/(n - 1).  Keys follow the canonical
    enumeration order.
    """
    from fractions import Fraction  # the one rational output; kept off the import path

    return {
        sigma: Fraction(_minus_k_numerator(s.n, sigma.part_b_mask), s.n - 1)
        for sigma in enumerate_stable_two_partitions(s, max_n=max_n)
    }


def minus_k_expanded(pi_or_tree: DistinguishedPartition | StableTree) -> int:
    """Anticanonical degree recomputed through the divisor expansion.

    Sums the coefficient-weighted pairings over the divisors meeting the
    curve class; only those in the P- and N-sets contribute, read as
    part-b masks.  A curve tree is accepted and reduced to its 4-block
    partition first.  The sum is over the common denominator n - 1, which
    must divide it exactly; the result must match the closed form.
    """
    pi = pi_of_tree(pi_or_tree) if isinstance(pi_or_tree, StableTree) else pi_or_tree
    _require_labels(pi.label_set, 5)
    n = pi.label_set.n
    plus = sum(_minus_k_numerator(n, b) for b in _p_masks(pi))
    degree, rest = divmod(plus - sum(_minus_k_numerator(n, b) for b in _n_masks(pi)), n - 1)
    _check_internal(rest == 0, "expanded degree is not an integer")
    return degree


def k_plus_b_pairing(pi: DistinguishedPartition) -> int:
    """Pairing of the curve class with the canonical class plus the full boundary.

    Read off the P- and N-sets, the only divisors meeting the curve, so no
    divisor is enumerated and no enumeration bound applies.
    """
    _require_labels(pi.label_set, 5)
    return len(_p_masks(pi)) - len(_n_masks(pi)) - minus_k_closed(pi)


def picard_rank(n: int) -> int:
    """Rank of the divisor class group of the n-label moduli space."""
    if n < 4:
        raise InvariantError(f"need at least 4 labels, got {n}")
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


class IntersectionMatrix(_Record):
    """The divisor-by-curve-class pairing table over one label set.

    Rows follow the canonical 2-partition order, columns the canonical
    4-block partition order.  Only the rows and the columns are stored, the
    columns as the lazy stream of :func:`enumerate_distinguished`, which
    every reader walks afresh.  The dense ``entries`` table is built on
    first use and then kept, and :func:`matrix_rank` never needs it.
    """

    label_set: LabelSet
    rows: tuple[TwoPartition, ...]
    cols: Sequence[DistinguishedPartition]

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Every cell, row by row: +1 on P-members, -1 on N-members, else 0."""
        width = len(self.cols)
        cells = memoryview(bytearray(len(self.rows) * width)).cast("b")
        for c, (plus, minus) in enumerate(_columns(self)):
            for r in bits_of(plus):
                cells[r * width + c] = 1
            for r in bits_of(minus):
                cells[r * width + c] = -1
        return tuple(tuple(cells[i : i + width]) for i in range(0, len(cells), width))

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

    Enumerates the rows; the columns stay a lazy stream, so no column
    object and no cell is held here.  Each column holds +1 on its P-members
    and -1 on its N-members, read off its blocks when ``entries`` or
    :func:`matrix_rank` walks the stream.
    """
    _require_labels(s, 5)
    rows = tuple(enumerate_stable_two_partitions(s, max_n=max_n))
    return IntersectionMatrix(s, rows, enumerate_distinguished(s, max_n=max_n))


def _columns(m: IntersectionMatrix) -> Iterator[tuple[int, int]]:
    """Each column as its P-rows and N-rows, int bitsets over row indices."""
    bit = {sigma.part_b_mask: 1 << r for r, sigma in enumerate(m.rows)}
    for pi in m.cols:
        plus = minus = 0
        for b in _p_masks(pi):
            plus |= bit[b]
        for b in _n_masks(pi):
            minus |= bit[b]
        yield plus, minus


def _keel_relations(m: IntersectionMatrix) -> list[tuple[int, int]]:
    """Keel's relations R(1, 2, k, l) as (+rows, -rows) bitsets.

    With 1, 2 the two smallest labels and k != l any two others, the
    divisors separating {1, 2} from {k, l} sum to the same class as those
    separating {1, k} from {2, l}, so the difference of the two row sums
    pairs to zero with every curve class.
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


def _keel_basis(m: IntersectionMatrix) -> list[tuple[int, int]]:
    """Keel's relations independent over GF(2), hence over the rationals.

    Each relation's support is reduced against the pivots kept so far,
    keyed by bit length; one that leaves a remainder joins the basis.
    """
    pivots: dict[int, int] = {}
    basis = []
    for rel in _keel_relations(m):
        v = rel[0] | rel[1]
        while v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
            basis.append(rel)
    return basis


def _rank_bounds(m: IntersectionMatrix) -> tuple[int, int]:
    """A lower and an upper bound on the rational rank of ``m``.

    The lower bound counts the distinct leads of the columns, a column's
    lead being the largest part-b mask among its nonzero rows.  One column
    per lead, ordered by lead, is triangular with +1 or -1 on the diagonal,
    so those columns are independent.  The upper bound is the row count
    minus the number of Keel relations independent over GF(2), hence over
    the rationals; each of them is checked in integers against every column.
    """
    basis = _keel_basis(m)
    masks = [sigma.part_b_mask for sigma in m.rows]
    leads = set()
    for plus, minus in _columns(m):
        for up, down in basis:
            _check_internal(
                (up & plus).bit_count() + (down & minus).bit_count()
                == (down & plus).bit_count() + (up & minus).bit_count(),
                "a Keel relation pairs nonzero with a curve class",
            )
        leads.add(max([masks[r] for r in bits_of(plus | minus)]))
    return len(leads), len(m.rows) - len(basis)


def matrix_rank(m: IntersectionMatrix | Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix.

    An :class:`IntersectionMatrix` is ranked from its sparse columns alone:
    the distinct leads bound the rank from below and Keel's relations from
    above, and the two must meet, or :class:`InternalCheckError` names
    both.  A plain sequence of rows is ranked by Bareiss fraction-free
    elimination over arbitrary-precision integers, scanning columns in
    order and taking the first nonzero pivot, so the result is
    deterministic and free of rounding.
    """
    if isinstance(m, IntersectionMatrix):
        lower, upper = _rank_bounds(m)
        _check_internal(lower == upper, f"rank bounds differ: {lower} distinct leads, Keel bound {upper}")
        return lower
    work = [list(r) for r in m]
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
