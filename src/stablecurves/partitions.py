"""Label sets and the set partitions indexing boundary divisors and curve classes.

Labels are arbitrary mutually comparable tokens.  A canonical total order is
fixed when a :class:`LabelSet` is built, and every subset is handled
internally as a bitmask over that order (bit ``i`` is the ``i``-th smallest
label), so intersection, containment and complement are single integer
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

__all__ = [
    "DEFAULT_MAX_N",
    "InvariantError",
    "InternalCheckError",
    "LabelSet",
    "TwoPartition",
    "DistinguishedPartition",
    "bits_of",
    "format_blocks",
    "partition_sort_key",
    "enumerate_stable_two_partitions",
    "c_weight",
    "p_set",
    "n_set",
    "reconstruct_from_p",
    "compatible",
    "enumerate_distinguished",
]

# Enumerations refuse label sets larger than this unless the caller raises
# the bound explicitly; the counts grow exponentially in n.
DEFAULT_MAX_N = 16


class InvariantError(ValueError):
    """Raised when an input violates a documented domain invariant."""


class InternalCheckError(AssertionError):
    """Raised when a cross-check the package runs on its own results fails.

    Unlike a bare ``assert``, the check still runs under ``python -O``.
    """


def _check_internal(ok: bool, message: str) -> None:
    """Raise :class:`InternalCheckError` with ``message`` unless ``ok``."""
    if not ok:
        raise InternalCheckError(message)


def bits_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _low_bit(mask: int) -> int:
    return mask & -mask


@dataclass(frozen=True)
class LabelSet:
    """A finite set of marking labels in a fixed canonical order."""

    labels: tuple

    def __post_init__(self):
        if not self.labels:
            raise InvariantError("label set is empty")
        if len(set(self.labels)) != len(self.labels):
            raise InvariantError("labels must be pairwise distinct")
        try:
            ordered = tuple(sorted(self.labels))
        except TypeError as exc:
            raise InvariantError("labels must be mutually comparable") from exc
        if self.labels != ordered:
            raise InvariantError("labels must be in sorted order; use LabelSet.of")

    @classmethod
    def of(cls, labels: Iterable) -> "LabelSet":
        items = list(labels)
        if len(set(items)) != len(items):
            raise InvariantError("labels must be pairwise distinct")
        try:
            items.sort()
        except TypeError as exc:
            raise InvariantError("labels must be mutually comparable") from exc
        return cls(tuple(items))

    @classmethod
    def numbered(cls, n: int) -> "LabelSet":
        """The label set {1, ..., n}."""
        if n < 1:
            raise InvariantError("need at least one label")
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, labels: Iterable) -> int:
        """Bitmask of a collection of member labels (each at most once)."""
        mask = 0
        for token in labels:
            try:
                i = self.labels.index(token)
            except ValueError:
                raise InvariantError(f"unknown label {token!r}") from None
            bit = 1 << i
            if mask & bit:
                raise InvariantError(f"label {token!r} repeated")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in bits_of(mask))


def format_blocks(label_set: LabelSet, masks: Iterable[int]) -> str:
    """Render blocks in the partition literal grammar.

    Blocks are separated by ``|``.  Labels are juxtaposed when every label in
    the set prints as a single character, and comma-separated otherwise.
    """
    compact = all(len(str(t)) == 1 for t in label_set.labels)
    sep = "" if compact else ","
    return "|".join(
        sep.join(str(t) for t in label_set.labels_of(m)) for m in masks
    )


@dataclass(frozen=True)
class TwoPartition:
    """A stable unordered 2-partition of a label set.

    Both parts have at least two labels.  Canonical orientation: ``part_a``
    is the side containing the smallest label, so only the other side is
    stored.
    """

    label_set: LabelSet
    part_b_mask: int

    def __post_init__(self):
        full = self.label_set.full_mask
        b = self.part_b_mask
        if b <= 0 or b & 1 or b & ~full:
            raise InvariantError(
                "part_b must be a nonempty label subset avoiding the smallest label"
            )
        if b.bit_count() < 2 or (full ^ b).bit_count() < 2:
            raise InvariantError("both parts need at least 2 labels")

    @classmethod
    def of(cls, label_set: LabelSet, part: Iterable) -> "TwoPartition":
        """Build from either part; the orientation is normalized."""
        mask = label_set.mask_of(part)
        if mask & 1:
            mask = label_set.full_mask ^ mask
        return cls(label_set, mask)

    @property
    def part_a_mask(self) -> int:
        return self.label_set.full_mask ^ self.part_b_mask

    @property
    def part_a(self) -> tuple:
        return self.label_set.labels_of(self.part_a_mask)

    @property
    def part_b(self) -> tuple:
        return self.label_set.labels_of(self.part_b_mask)

    @property
    def sizes(self) -> tuple[int, int]:
        b = self.part_b_mask.bit_count()
        return (self.label_set.n - b, b)

    def literal(self) -> str:
        return format_blocks(self.label_set, (self.part_a_mask, self.part_b_mask))


def partition_sort_key(sigma: TwoPartition) -> tuple:
    """Sort key realizing the canonical enumeration order."""
    return (sigma.part_b_mask.bit_count(), bits_of(sigma.part_b_mask))


@dataclass(frozen=True)
class DistinguishedPartition:
    """An unordered partition of the label set into exactly four nonempty blocks.

    Blocks are stored in ascending order of their smallest label, so block
    one always contains the overall smallest label.
    """

    label_set: LabelSet
    block_masks: tuple[int, int, int, int]

    def __post_init__(self):
        masks = self.block_masks
        if len(masks) != 4 or any(m <= 0 for m in masks):
            raise InvariantError("need exactly 4 nonempty blocks")
        union = 0
        total = 0
        for m in masks:
            union |= m
            total += m.bit_count()
        if union != self.label_set.full_mask or total != self.label_set.n:
            raise InvariantError("blocks must be disjoint and cover the label set")
        if list(masks) != sorted(masks, key=_low_bit):
            raise InvariantError("blocks must be ordered by their smallest label")

    @classmethod
    def of(cls, label_set: LabelSet, blocks: Iterable[Iterable]) -> "DistinguishedPartition":
        masks = sorted((label_set.mask_of(b) for b in blocks), key=_low_bit)
        if len(masks) != 4:
            raise InvariantError("need exactly 4 nonempty blocks")
        return cls(label_set, tuple(masks))

    @property
    def blocks(self) -> tuple:
        return tuple(self.label_set.labels_of(m) for m in self.block_masks)

    @property
    def shape(self) -> tuple[int, ...]:
        """Block sizes in descending order."""
        return tuple(sorted((m.bit_count() for m in self.block_masks), reverse=True))

    def literal(self) -> str:
        return format_blocks(self.label_set, self.block_masks)


def _require_labels(s: LabelSet, minimum: int) -> None:
    if s.n < minimum:
        raise InvariantError(f"operation needs at least {minimum} labels, got {s.n}")


def _require_bound(s: LabelSet, max_n: int | None) -> None:
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if s.n > bound:
        raise InvariantError(f"{s.n} labels exceeds the enumeration bound {bound}")


def enumerate_stable_two_partitions(s: LabelSet, max_n: int | None = None) -> list[TwoPartition]:
    """All stable 2-partitions of ``s``, each exactly once.

    Order: ascending size of the part avoiding the smallest label, then
    lexicographic within a size.  The count is ``2**(n-1) - 1 - n``.
    """
    _require_labels(s, 4)
    _require_bound(s, max_n)
    out = []
    for k in range(2, s.n - 1):
        for combo in combinations(range(1, s.n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(TwoPartition(s, mask))
    return out


def c_weight(sigma: TwoPartition) -> int:
    """Product of the two part sizes."""
    a, b = sigma.sizes
    return a * b


def p_set(pi: DistinguishedPartition) -> tuple[TwoPartition, ...]:
    """The three stable 2-partitions that pair the blocks two against two.

    Each part is a union of exactly two blocks.  Ordered by which block
    joins the first one.
    """
    full = pi.label_set.full_mask
    b0, b1, b2, b3 = pi.block_masks
    return tuple(
        TwoPartition(pi.label_set, full ^ (b0 | bk)) for bk in (b1, b2, b3)
    )


def n_set(pi: DistinguishedPartition) -> tuple[TwoPartition, ...]:
    """The stable 2-partitions one part of which is a single block.

    Only blocks with at least two labels qualify, so the result is empty
    when all four blocks are singletons.
    """
    full = pi.label_set.full_mask
    out = []
    for m in pi.block_masks:
        if m.bit_count() >= 2:
            out.append(TwoPartition(pi.label_set, m if not m & 1 else full ^ m))
    return tuple(out)


def reconstruct_from_p(partitions: Iterable[TwoPartition]) -> DistinguishedPartition:
    """Recover the 4-block partition whose pairing set is the given triple.

    The blocks are the pairwise intersections of the parts of two distinct
    members; the result is then verified against the whole triple.
    """
    parts = list(partitions)
    if len(parts) != 3 or len(set(parts)) != 3:
        raise InvariantError("not a P-set: need exactly 3 distinct 2-partitions")
    s = parts[0].label_set
    if any(p.label_set != s for p in parts):
        raise InvariantError("not a P-set: mixed label sets")
    first, second = sorted(parts, key=partition_sort_key)[:2]
    blocks = []
    for x in (first.part_a_mask, first.part_b_mask):
        for y in (second.part_a_mask, second.part_b_mask):
            m = x & y
            if not m:
                raise InvariantError("not a P-set: a pairwise part intersection is empty")
            blocks.append(m)
    pi = DistinguishedPartition(s, tuple(sorted(blocks, key=_low_bit)))
    if set(p_set(pi)) != set(parts):
        raise InvariantError("not a P-set: triple does not pair the blocks of any 4-block partition")
    return pi


def compatible(sigma: TwoPartition, rho: TwoPartition) -> bool:
    """True when the 2-partitions do not cross.

    Non-crossing means some part of one is contained in some part of the
    other, equivalently one of the four part intersections is empty.
    """
    if sigma.label_set != rho.label_set:
        raise InvariantError("mismatched label sets")
    a1, b1 = sigma.part_a_mask, sigma.part_b_mask
    a2, b2 = rho.part_a_mask, rho.part_b_mask
    return not (a1 & a2) or not (a1 & b2) or not (b1 & a2) or not (b1 & b2)


def enumerate_distinguished(s: LabelSet, max_n: int | None = None) -> list[DistinguishedPartition]:
    """All partitions of ``s`` into exactly 4 nonempty blocks.

    Labels are assigned to blocks in restricted-growth order, so the output
    is deterministic and blocks come out already sorted by smallest label.
    """
    _require_labels(s, 4)
    _require_bound(s, max_n)
    n = s.n
    out: list[DistinguishedPartition] = []
    blocks = [1, 0, 0, 0]

    def extend(i: int, used: int) -> None:
        if n - i < 4 - used:
            return
        if i == n:
            out.append(DistinguishedPartition(s, tuple(blocks)))
            return
        bit = 1 << i
        for j in range(used):
            blocks[j] |= bit
            extend(i + 1, used)
            blocks[j] ^= bit
        if used < 4:
            blocks[used] |= bit
            extend(i + 1, used + 1)
            blocks[used] ^= bit

    extend(1, 1)
    return out
