"""Boundary divisors and curve classes as partitions of the label set.

A boundary divisor is a 2-partition of the labels with both parts of size
at least 2.  A one-dimensional boundary class is a partition into exactly
4 blocks.  This script walks through both families and the three-element
P-set attached to every 4-block partition.
"""

from __future__ import annotations

from stablecurves import (
    DistinguishedPartition,
    LabelSet,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    n_set,
    p_set,
    reconstruct_from_p,
)


def main() -> None:
    print("== stable 2-partitions (boundary divisors) ==")
    for n in range(4, 8):
        s = LabelSet.numbered(n)
        divisors = list(enumerate_stable_two_partitions(s))
        print(f"n={n}: {len(divisors)} divisors")
    s = LabelSet.numbered(5)
    print("\nall divisors for n=5:")
    for sigma in enumerate_stable_two_partitions(s):
        print(f"  {sigma.literal()}  sizes={sigma.sizes}")

    print("\n== 4-block partitions (boundary curve classes) ==")
    for n in range(4, 8):
        s = LabelSet.numbered(n)
        classes = list(enumerate_distinguished(s))
        print(f"n={n}: {len(classes)} classes")

    s = LabelSet.numbered(6)
    pi = DistinguishedPartition.of(s, [[1, 4], [2], [3], [5, 6]])
    print(f"\none class for n=6: {pi.literal()}  shape={pi.shape}")
    print("its P-set (the three ways of pairing the blocks two against two):")
    for sigma in sorted(p_set(pi), key=lambda x: x.literal()):
        print(f"  {sigma.literal()}")
    print("its N-set (blocks that are already stable 2-partition parts):")
    for sigma in sorted(n_set(pi), key=lambda x: x.literal()):
        print(f"  {sigma.literal()}")

    rebuilt = reconstruct_from_p(p_set(pi))
    print(f"\nreconstructed from the P-set alone: {rebuilt.literal()}")
    assert rebuilt == pi


if __name__ == "__main__":
    main()
