"""Partition layer: enumerations, pairing sets, reconstruction, compatibility.

Expected values are cross-checked against brute-force oracles built from
raw subset enumeration, independent of the bitmask implementation.
"""

from __future__ import annotations

import gc
import random
import re
import time
from itertools import combinations

import pytest

from stablecurves import (
    DistinguishedPartition,
    InvariantError,
    LabelSet,
    TwoPartition,
    compatible,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    n_set,
    p_set,
    reconstruct_from_p,
)

from _support import as_pair, stirling_4


# ---------------------------------------------------------------- oracles


def brute_two_partitions(n):
    """Unordered stable 2-partitions of {1..n} as frozenset pairs."""
    labels = frozenset(range(1, n + 1))
    found = set()
    for k in range(2, n - 1):
        for combo in combinations(sorted(labels), k):
            part = frozenset(combo)
            rest = labels - part
            if len(rest) >= 2:
                found.add(frozenset((part, rest)))
    return found


def brute_four_block_partitions(n):
    """Partitions of {1..n} into exactly 4 nonempty blocks, by recursion."""
    out = []

    def place(i, blocks):
        if n - i + 1 < 4 - len(blocks):
            return
        if i > n:
            if len(blocks) == 4:
                out.append(frozenset(frozenset(b) for b in blocks))
            return
        for b in blocks:
            place(i + 1, [x if x is not b else b | {i} for x in blocks])
        if len(blocks) < 4:
            place(i + 1, blocks + [{i}])

    place(2, [{1}])
    return out


# ----------------------------------------------------------- label sets


def test_label_set_sorts_and_rejects_duplicates():
    s = LabelSet([3, 1, 2, 5, 4])
    assert s.labels == (1, 2, 3, 4, 5)
    with pytest.raises(InvariantError, match="pairwise distinct"):
        LabelSet([1, 1, 2, 3])
    for build in (lambda: LabelSet([1, "a", 2, 3]), lambda: LabelSet((1, "a"))):
        with pytest.raises(InvariantError, match="mutually comparable"):
            build()
    # Incomparable labels are reported before repeated ones.
    with pytest.raises(InvariantError, match="mutually comparable"):
        LabelSet([1, 1, "a"])
    # Each other fault is named: an argument that is not iterable, or unhashable labels.
    for labels, fault in [
        (5, "'int' object is not iterable"),
        (None, "'NoneType' object is not iterable"),
        ([[1], [2]], "unhashable type: 'list'"),
    ]:
        # Python's own wording follows; newer versions add text around it.
        with pytest.raises(InvariantError, match=f"^labels must be iterable and hashable: .*{re.escape(fault)}"):
            LabelSet(labels)
    for build in (lambda: LabelSet([]), lambda: LabelSet(()), lambda: LabelSet(iter(()))):
        with pytest.raises(InvariantError, match="label set is empty"):
            build()
    # The constructor itself sorts.
    assert LabelSet((2, 1)) == LabelSet.numbered(2) and LabelSet((2, 1)).labels == (1, 2)
    with pytest.raises(InvariantError, match="at least one label"):
        LabelSet.numbered(0)
    for n in (5.0, True):  # a bool is no count
        with pytest.raises(InvariantError, match=f"^label count must be an integer, got {n}$"):
            LabelSet.numbered(n)


def test_constructors_put_their_input_in_canonical_form():
    # Each constructor takes a valid value in any order, or by either side,
    # and equals the value its ``of`` twin builds.
    s = LabelSet.numbered(6)
    assert LabelSet((3, 1, 2)) == LabelSet([3, 1, 2]) == LabelSet.numbered(3)
    assert TwoPartition(s, 0b000011) == TwoPartition.of(s, [1, 2])
    rng = random.Random(5)
    for pi in enumerate_distinguished(s):
        blocks = list(pi.blocks)
        rng.shuffle(blocks)
        masks = [s.mask_of(b) for b in blocks]
        assert DistinguishedPartition(s, masks) == DistinguishedPartition.of(s, blocks) == pi


def test_label_set_masks_roundtrip():
    s = LabelSet(["a", "b", "c", "d"])
    m = s.mask_of(["b", "d"])
    assert s.labels_of(m) == ("b", "d")
    for mask in (1 << 4, -1):  # past the last label; negative
        with pytest.raises(InvariantError, match=f"^mask {mask} is not a subset of the 4 labels$"):
            s.labels_of(mask)
    for mask in (3.0, True):
        with pytest.raises(InvariantError, match=f"^mask must be an integer, got {mask}$"):
            s.labels_of(mask)
    # A non-iterable is refused by the one loop that reads labels.
    with pytest.raises(InvariantError, match="^labels must be iterable, got None$"):
        s.mask_of(None)
    with pytest.raises(InvariantError, match="^labels must be iterable, got 3$"):
        TwoPartition.of(s, 3)
    with pytest.raises(InvariantError, match="^blocks must be iterable, got None$"):
        DistinguishedPartition.of(s, None)
    with pytest.raises(InvariantError, match="^labels must be iterable, got 1$"):
        DistinguishedPartition.of(s, [1, ["b"], ["c"], ["d"]])
    with pytest.raises(InvariantError):
        s.mask_of(["z"])
    with pytest.raises(InvariantError):
        s.mask_of(["a", "a"])


# -------------------------------------------------- stable 2-partitions


def test_two_partition_orientation_and_stability():
    s = LabelSet.numbered(6)
    sigma = TwoPartition.of(s, [5, 6])
    assert sigma.part_a == (1, 2, 3, 4)
    assert sigma.part_b == (5, 6)
    same = TwoPartition.of(s, [1, 2, 3, 4])
    assert same == sigma
    with pytest.raises(InvariantError):
        TwoPartition.of(s, [6])
    with pytest.raises(InvariantError):
        TwoPartition.of(s, [2, 3, 4, 5, 6])
    for mask in (0, 0b111111, 0b1000110):  # empty, the full set, outside the set
        with pytest.raises(InvariantError, match="^part_b must be a nonempty label subset$"):
            TwoPartition(s, mask)
    with pytest.raises(InvariantError, match="^part_b must be an integer mask, got 12.0$"):
        TwoPartition(s, 12.0)
    # A mask holding label 1 names the other side, which is what is stored.
    flipped = TwoPartition(s, 0b000011)
    assert flipped.part_b_mask == 0b111100 and flipped == TwoPartition.of(s, [3, 4, 5, 6])


def test_two_partition_count_formula_up_to_12():
    for n in range(4, 13):
        out = enumerate_stable_two_partitions(LabelSet.numbered(n))
        assert len(out) == 2 ** (n - 1) - 1 - n


def test_two_partition_enumeration_matches_oracle_exactly():
    for n in (4, 5, 6, 7):
        got = {as_pair(sigma) for sigma in enumerate_stable_two_partitions(LabelSet.numbered(n))}
        assert got == brute_two_partitions(n)


def test_two_partition_enumeration_is_deterministic_and_duplicate_free():
    s = LabelSet.numbered(7)
    first = enumerate_stable_two_partitions(s)
    second = enumerate_stable_two_partitions(s)
    assert first == second
    assert len(set(first)) == len(first)


def test_two_partition_enumeration_rejects_small_and_oversized():
    with pytest.raises(InvariantError):
        enumerate_stable_two_partitions(LabelSet.numbered(3))
    with pytest.raises(InvariantError):
        enumerate_stable_two_partitions(LabelSet.numbered(9), max_n=8)
    with pytest.raises(InvariantError, match="max_n must be an integer, got 6.5"):
        enumerate_stable_two_partitions(LabelSet.numbered(6), max_n=6.5)


# ------------------------------------------------- 4-block partitions


def test_distinguished_blocks_are_canonically_ordered():
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[4, 5, 6], [2], [1], [3]])
    assert pi.blocks == ((1,), (2,), (3,), (4, 5, 6))
    assert pi.shape == (3, 1, 1, 1)
    with pytest.raises(InvariantError, match="exactly 4 nonempty blocks"):
        DistinguishedPartition.of(s, [[1], [2], [3, 4, 5, 6]])
    with pytest.raises(InvariantError, match="cover the label set"):
        DistinguishedPartition.of(s, [[1], [2], [3], [4]])
    for labels, masks in [(s, ["a", 2, 4, 8]), (LabelSet.numbered(5), [True, 2, 4, 24])]:
        with pytest.raises(InvariantError, match=rf"^blocks must be integer masks, got {re.escape(repr(masks))}$"):
            DistinguishedPartition(labels, masks)
    out_of_order = DistinguishedPartition(s, (0b10, 0b1, 0b100, 0b111000))
    assert out_of_order.block_masks == (0b1, 0b10, 0b100, 0b111000)
    assert out_of_order == pi


@pytest.mark.parametrize(
    "labels",
    [pytest.param([bad, "c", "d", "e"], id=bad) for bad in ["a,b", "a|b", "a b", "\t", ""]]
    + [
        # Tokens that read back as other labels: ints, strings, strings, strings.
        pytest.param(["1", "2", "3", "4"], id="'1'"),
        pytest.param([-1, 2, 3, 4], id="-1"),
        pytest.param([1.5, 2, 3, 4], id="1.5"),
        pytest.param([True, 2, 3, 4], id="True"),
    ],
)
def test_literals_refuse_labels_that_would_not_read_back(labels):
    s = LabelSet(labels)
    bad = s.labels[0]
    refusal = f"^label {re.escape(repr(bad))} cannot be written in a literal$"
    for partition in (
        DistinguishedPartition.of(s, [[t] for t in s.labels]),
        TwoPartition.of(s, s.labels[:2]),
    ):
        with pytest.raises(InvariantError, match=refusal):
            partition.literal()


def test_distinguished_enumeration_matches_oracles():
    for n in range(4, 9):
        got = enumerate_distinguished(LabelSet.numbered(n))
        assert len(got) == stirling_4(n)
        assert len(set(got)) == len(got)
    for n in (5, 6, 7):
        got = {
            frozenset(frozenset(b) for b in pi.blocks)
            for pi in enumerate_distinguished(LabelSet.numbered(n))
        }
        assert got == set(brute_four_block_partitions(n))


def test_distinguished_stream_length_is_the_closed_form():
    for n in range(4, 11):
        classes = enumerate_distinguished(LabelSet.numbered(n))
        walked = list(classes)
        assert len(classes) == stirling_4(n) == len(walked)
        assert list(classes) == walked  # a second pass starts afresh


def test_distinguished_stream_at_n16_walks_nothing_up_front():
    start = time.perf_counter()
    classes = enumerate_distinguished(LabelSet.numbered(16))
    assert len(classes) == 171_798_901 == stirling_4(16)
    first = next(iter(classes))
    assert time.perf_counter() - start < 0.5
    # The first restricted-growth class puts labels 2..13 with label 1.
    assert first.block_masks == ((1 << 13) - 1, 1 << 13, 1 << 14, 1 << 15)


def test_a_distinguished_pass_leaves_no_reference_cycle():
    # The restricted-growth recursion is a module function: as a
    # self-referencing closure it left one cycle behind on every pass.
    classes = enumerate_distinguished(LabelSet.numbered(7))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(3):
            assert sum(1 for _ in classes) == len(classes)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_distinguished_streams_compare_by_label_set():
    a = enumerate_distinguished(LabelSet.numbered(6))
    b = enumerate_distinguished(LabelSet.numbered(6))
    assert a == b and hash(a) == hash(b)
    assert a != enumerate_distinguished(LabelSet.numbered(7))
    assert a != enumerate_distinguished(LabelSet("abcdef"))


def test_distinguished_stream_validates_at_call_time():
    with pytest.raises(InvariantError):
        enumerate_distinguished(LabelSet.numbered(3))
    # Building walks nothing, so no enumeration bound applies.
    assert len(enumerate_distinguished(LabelSet.numbered(17))) == stirling_4(17)
    # n = 33 is the last count len() can return; past it the refusal quotes the count.
    assert len(enumerate_distinguished(LabelSet.numbered(33))) == stirling_4(33)
    with pytest.raises(InvariantError, match=f"holds {stirling_4(34)} items"):
        len(enumerate_distinguished(LabelSet.numbered(34)))


# -------------------------------------------------------- p_set, n_set


def test_p_set_n4():
    s = LabelSet.numbered(4)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4]])
    assert {as_pair(x) for x in p_set(pi)} == {
        frozenset((frozenset({1, 2}), frozenset({3, 4}))),
        frozenset((frozenset({1, 3}), frozenset({2, 4}))),
        frozenset((frozenset({1, 4}), frozenset({2, 3}))),
    }
    assert n_set(pi) == ()


def test_p_set_contains_block_union():
    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1], [2], [3], [4, 5, 6]])
    assert TwoPartition.of(s, [1, 2]) in p_set(pi)
    assert [x.literal() for x in p_set(pi)] == ["12|3456", "13|2456", "1456|23"]


def test_n_set_sizes_by_shape():
    s6 = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s6, [[1], [2], [3], [4, 5, 6]])
    assert len(n_set(pi)) == 1
    pi2 = DistinguishedPartition.of(s6, [[1, 2], [3, 4], [5], [6]])
    assert len(n_set(pi2)) == 2
    s7 = LabelSet.numbered(7)
    pi3 = DistinguishedPartition.of(s7, [[1], [2, 3], [4, 5], [6, 7]])
    assert len(n_set(pi3)) == 3


def test_p_and_n_cardinality_invariants_exhaustive():
    for n in range(4, 9):
        for pi in enumerate_distinguished(LabelSet.numbered(n)):
            ps = p_set(pi)
            ns = n_set(pi)
            assert len(ps) == 3
            assert len(set(ps)) == 3
            assert len(ns) == sum(1 for b in pi.blocks if len(b) >= 2)
            assert not set(ps) & set(ns)


def test_p_elements_cross_and_n_elements_do_not():
    for n in range(5, 9):
        for pi in enumerate_distinguished(LabelSet.numbered(n)):
            ps = p_set(pi)
            for x, y in combinations(ps, 2):
                assert not compatible(x, y)
            for z in n_set(pi):
                assert all(compatible(z, x) for x in ps)


# -------------------------------------------------------- reconstruction


def test_reconstruct_roundtrip_exhaustive():
    for n in range(4, 9):
        for pi in enumerate_distinguished(LabelSet.numbered(n)):
            assert reconstruct_from_p(p_set(pi)) == pi


def test_reconstruct_by_hand_intersections():
    s = LabelSet.numbered(5)
    parts = [
        TwoPartition.of(s, [1, 2]),
        TwoPartition.of(s, [1, 3]),
        TwoPartition.of(s, [1, 4, 5]),
    ]
    pi = reconstruct_from_p(parts)
    assert pi.blocks == ((1,), (2,), (3,), (4, 5))


def test_reconstruct_rejects_non_p_triple():
    s = LabelSet.numbered(5)
    triple = [
        TwoPartition.of(s, [1, 2]),
        TwoPartition.of(s, [1, 3]),
        TwoPartition.of(s, [1, 5]),
    ]
    # No 4-block partition of {1..5} has this as its pairing set.
    for pi in enumerate_distinguished(s):
        assert set(p_set(pi)) != set(triple)
    with pytest.raises(InvariantError):
        reconstruct_from_p(triple)


def test_reconstruct_rejects_malformed_input():
    s = LabelSet.numbered(5)
    sigma = TwoPartition.of(s, [1, 2])
    with pytest.raises(InvariantError):
        reconstruct_from_p([sigma, sigma, sigma])
    with pytest.raises(InvariantError):
        reconstruct_from_p([sigma])
    other = TwoPartition.of(LabelSet.numbered(6), [1, 2])
    with pytest.raises(InvariantError, match="mixed label sets"):
        reconstruct_from_p([sigma, TwoPartition.of(s, [1, 3]), other])
    # Sorted, 123|45 and 13|245 come first, and their parts {4,5} and {1,3} are disjoint.
    triple = [TwoPartition.of(s, [1, 2]), TwoPartition.of(s, [1, 2, 3]), TwoPartition.of(s, [1, 3])]
    with pytest.raises(InvariantError, match="intersection is empty"):
        reconstruct_from_p(triple)


# --------------------------------------------------------- compatibility


def test_compatible_examples():
    s = LabelSet.numbered(6)
    nested = (TwoPartition.of(s, [5, 6]), TwoPartition.of(s, [4, 5, 6]))
    assert compatible(*nested)
    disjoint = (TwoPartition.of(s, [2, 3]), TwoPartition.of(s, [5, 6]))
    assert compatible(*disjoint)
    crossing = (TwoPartition.of(s, [2, 3]), TwoPartition.of(s, [3, 4]))
    assert not compatible(*crossing)


def test_compatible_is_reflexive_and_symmetric():
    s = LabelSet.numbered(6)
    sigmas = enumerate_stable_two_partitions(s)
    for x in sigmas:
        assert compatible(x, x)
    for x, y in combinations(sigmas, 2):
        assert compatible(x, y) == compatible(y, x)


def test_compatible_matches_set_containment_oracle():
    s = LabelSet.numbered(6)
    sigmas = enumerate_stable_two_partitions(s)
    for x in sigmas:
        for y in sigmas:
            xa, xb = set(x.part_a), set(x.part_b)
            ya, yb = set(y.part_a), set(y.part_b)
            expected = any(
                p <= q
                for p in (xa, xb)
                for q in (ya, yb)
            )
            assert compatible(x, y) == expected


def test_compatible_rejects_mixed_label_sets():
    a = TwoPartition.of(LabelSet.numbered(5), [4, 5])
    b = TwoPartition.of(LabelSet.numbered(6), [4, 5])
    with pytest.raises(InvariantError):
        compatible(a, b)
