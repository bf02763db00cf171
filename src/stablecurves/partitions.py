"""Label sets and the set partitions indexing boundary divisors and curve classes.

Labels are arbitrary mutually comparable tokens.  A canonical total order is
fixed when a :class:`LabelSet` is built, and every subset is handled
internally as a bitmask over that order (bit ``i`` is the ``i``-th smallest
label), so intersection, containment and complement are single integer
operations.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator

from ._base import InternalCheckError, InvariantError, _Record, _integer, _length, _low_bit, bits_of

__all__ = [
    "DEFAULT_MAX_N",
    "InvariantError",
    "InternalCheckError",
    "LabelSet",
    "TwoPartition",
    "DistinguishedPartition",
    "enumerate_stable_two_partitions",
    "p_set",
    "n_set",
    "reconstruct_from_p",
    "compatible",
    "enumerate_distinguished",
]

# Enumerations refuse label sets larger than this unless the caller raises
# the bound explicitly; the counts grow exponentially in n.
DEFAULT_MAX_N = 16


class LabelSet(_Record):
    """A finite set of marking labels, which its constructor sorts and checks.

    The labels come as any iterable; they must be hashable, mutually
    comparable (checked before a repeat is) and pairwise distinct.
    """

    labels: tuple

    def __init__(self, labels: Iterable) -> None:
        try:
            labels = tuple(labels)
            unique = set(labels)
        except TypeError as exc:
            raise InvariantError(f"labels must be iterable and hashable: {exc}") from None
        try:
            ordered = tuple(sorted(labels))
        except TypeError as exc:
            raise InvariantError("labels must be mutually comparable") from exc
        if not ordered:
            raise InvariantError("label set is empty")
        if len(unique) != len(ordered):
            raise InvariantError("labels must be pairwise distinct")
        object.__setattr__(self, "labels", ordered)

    @classmethod
    def numbered(cls, n: int) -> "LabelSet":
        """The label set {1, ..., n}."""
        n = _integer(n, "label count")
        if n < 1:
            raise InvariantError("need at least one label")
        return cls(tuple(range(1, n + 1)))

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, labels: Iterable) -> int:
        """Bitmask of a collection of member labels (each at most once)."""
        mask = 0
        try:
            for token in labels:
                try:
                    i = self.labels.index(token)
                except ValueError:
                    raise InvariantError(f"unknown label {token!r}") from None
                bit = 1 << i
                if mask & bit:
                    raise InvariantError(f"label {token!r} repeated")
                mask |= bit
        except TypeError:
            raise InvariantError(f"labels must be iterable, got {labels!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple:
        mask = _integer(mask, "mask")
        if mask & ~self.full_mask:
            raise InvariantError(f"mask {mask!r} is not a subset of the {self.n} labels")
        return tuple([self.labels[i] for i in bits_of(mask)])


def _format_shape(shape: Iterable[int]) -> str:
    """Render block sizes as ``"3+1+1+1"``."""
    return "+".join(map(str, shape))


class TwoPartition(_Record):
    """A stable unordered 2-partition of a label set.

    Both parts have at least two labels.  The constructor takes the mask of
    either part, and :meth:`of` the labels of either part; ``part_a`` is the
    side containing the smallest label, so only the other side is stored.
    """

    label_set: LabelSet
    part_b_mask: int

    def __init__(self, label_set: LabelSet, part_b_mask: int) -> None:
        try:
            if part_b_mask & 1:
                part_b_mask ^= label_set.full_mask
        except TypeError:
            raise InvariantError(f"part_b must be an integer mask, got {part_b_mask!r}") from None
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "part_b_mask", part_b_mask)
        self.__post_init__()

    def __post_init__(self):
        full = self.label_set.full_mask
        b = self.part_b_mask
        if b <= 0 or b & ~full:
            raise InvariantError("part_b must be a nonempty label subset")
        if b.bit_count() < 2 or (full ^ b).bit_count() < 2:
            raise InvariantError("both parts need at least 2 labels")

    @classmethod
    def of(cls, label_set: LabelSet, part: Iterable) -> "TwoPartition":
        return cls(label_set, label_set.mask_of(part))

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
        from .literals import format_blocks  # literals imports this module
        return format_blocks(self.label_set, (self.part_a_mask, self.part_b_mask))


def partition_sort_key(sigma: TwoPartition) -> tuple:
    """Sort key realizing the canonical enumeration order."""
    return (sigma.part_b_mask.bit_count(), bits_of(sigma.part_b_mask))


class DistinguishedPartition(_Record):
    """An unordered partition of the label set into exactly four nonempty blocks.

    Blocks may be given in any order and are stored in ascending order of
    their smallest label, so block one always contains the overall smallest
    label.
    """

    label_set: LabelSet
    block_masks: tuple[int, int, int, int]

    def __init__(self, label_set: LabelSet, block_masks: Iterable[int]) -> None:
        try:
            masks = tuple(sorted(block_masks, key=_low_bit))
            if bool in map(type, masks):  # a bool sorts and pairs as 0 or 1 but reads as no mask
                raise TypeError
        except TypeError:
            raise InvariantError(f"blocks must be integer masks, got {block_masks!r}") from None
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "block_masks", masks)
        self.__post_init__()

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

    @classmethod
    def of(cls, label_set: LabelSet, blocks: Iterable[Iterable]) -> "DistinguishedPartition":
        try:  # the constructor turns each TypeError of its own into InvariantError
            return cls(label_set, [label_set.mask_of(b) for b in blocks])
        except TypeError:
            raise InvariantError(f"blocks must be iterable, got {blocks!r}") from None

    @property
    def blocks(self) -> tuple:
        return tuple([self.label_set.labels_of(m) for m in self.block_masks])

    @property
    def shape(self) -> tuple[int, ...]:
        """Block sizes in descending order."""
        return tuple(sorted((m.bit_count() for m in self.block_masks), reverse=True))

    def literal(self) -> str:
        from .literals import format_blocks  # literals imports this module
        return format_blocks(self.label_set, self.block_masks)


def _require_labels(s: LabelSet, minimum: int) -> None:
    if s.n < minimum:
        raise InvariantError(f"operation needs at least {minimum} labels, got {s.n}")


def _require_bound(s: LabelSet, max_n: int | None) -> None:
    bound = DEFAULT_MAX_N if max_n is None else _integer(max_n, "max_n")
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


def _p_masks(pi: DistinguishedPartition) -> tuple[int, int, int]:
    """Part-b masks of the P-set: each part a union of exactly two blocks."""
    full = pi.label_set.full_mask
    b0, b1, b2, b3 = pi.block_masks
    return (full ^ (b0 | b1), full ^ (b0 | b2), full ^ (b0 | b3))


def _n_masks(pi: DistinguishedPartition) -> tuple[int, ...]:
    """Part-b masks of the N-set: one part a single block of at least 2 labels."""
    full = pi.label_set.full_mask
    return tuple([m ^ full if m & 1 else m for m in pi.block_masks if m.bit_count() >= 2])


def p_set(pi: DistinguishedPartition) -> tuple[TwoPartition, ...]:
    """The three stable 2-partitions that pair the blocks two against two.

    Each part is a union of exactly two blocks.  Ordered by which block
    joins the first one.
    """
    return tuple([TwoPartition(pi.label_set, m) for m in _p_masks(pi)])


def n_set(pi: DistinguishedPartition) -> tuple[TwoPartition, ...]:
    """The stable 2-partitions one part of which is a single block.

    Only blocks with at least two labels qualify, so the result is empty
    when all four blocks are singletons.
    """
    return tuple([TwoPartition(pi.label_set, m) for m in _n_masks(pi)])


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
    # The two first in canonical order, so a refusal does not depend on
    # the order the triple is given in.
    first, second = sorted(parts, key=partition_sort_key)[:2]
    blocks = []
    for x in (first.part_a_mask, first.part_b_mask):
        for y in (second.part_a_mask, second.part_b_mask):
            m = x & y
            if not m:
                raise InvariantError("not a P-set: a pairwise part intersection is empty")
            blocks.append(m)
    pi = DistinguishedPartition(s, blocks)
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
    return _masks_compatible(sigma.part_b_mask, rho.part_b_mask)


def _masks_compatible(x: int, y: int) -> bool:
    # Part-b masks avoid bit 0, so the part-a sides always meet and
    # non-crossing reduces to nested or disjoint.
    z = x & y
    return z == 0 or z == x or z == y


def _shape_counts(n: int) -> dict[tuple[int, ...], int]:
    """How many 4-block partitions of n labels have each block-size shape.

    Shapes are descending and come in descending order.  A shape b_1..b_4
    has n!/(prod b_i! * prod m_j!) partitions, m_j counting equal blocks.
    """
    return {
        shape: math.factorial(n)
        // math.prod(map(math.factorial, (*shape, *Counter(shape).values())))
        for shape in combinations_with_replacement(range(n - 3, 0, -1), 4)
        if sum(shape) == n
    }


class _DistinguishedPartitions(_Record):
    """The 4-block partitions of a label set, built afresh on every pass.

    Equal, and hashed alike, when the label sets are.  The length is summed
    over block-size shapes, so it walks no partition.
    """

    label_set: LabelSet

    def __len__(self) -> int:
        return _length(sum(_shape_counts(self.label_set.n).values()))

    def __iter__(self) -> Iterator[DistinguishedPartition]:
        s = self.label_set
        return _restricted_growth(s, s.n, [1, 0, 0, 0], 1, 1)


def _restricted_growth(
    s: LabelSet, n: int, blocks: list[int], i: int, used: int
) -> Iterator[DistinguishedPartition]:
    # Module-level, not a closure: a self-referencing closure would leave a
    # reference cycle behind on every pass.
    if n - i < 4 - used:
        return
    if i == n:
        yield DistinguishedPartition(s, tuple(blocks))
        return
    bit = 1 << i
    for j in range(used):
        blocks[j] |= bit
        yield from _restricted_growth(s, n, blocks, i + 1, used)
        blocks[j] ^= bit
    if used < 4:
        blocks[used] |= bit
        yield from _restricted_growth(s, n, blocks, i + 1, used + 1)
        blocks[used] ^= bit


def enumerate_distinguished(s: LabelSet) -> _DistinguishedPartitions:
    """All partitions of ``s`` into exactly 4 nonempty blocks.

    Labels are assigned to blocks in restricted-growth order, so the output
    is deterministic and blocks come out already sorted by smallest label.
    The result is lazy, sized and re-iterable: its length is the closed-form
    count S(n, 4), and each pass builds the partitions anew.  ``list(...)``
    gives random access.  Building it walks nothing, so it takes no ``max_n``.
    """
    _require_labels(s, 4)
    return _DistinguishedPartitions(s)
