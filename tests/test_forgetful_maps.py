"""The map that forgets the last label, as an oracle across label counts.

pi: M_{0,n+1} -> M_{0,n} forgets label n + 1.  On the boundary classes
the package holds:

- pullback: pi^* D_{A|B} = D_{A+|B} + D_{A|B+}, where + adds label n + 1;
- pushforward of a boundary curve: drop label n + 1 from its block; a
  curve whose block is that label alone is contracted, pi_* C = 0;
- projection formula: pi^* D . C = D . pi_* C;
- canonical classes: K_{n+1} = pi^* K_n + omega, where omega is
  psi_{n+1} - sum_j D_{j,n+1}, and psi_{n+1} . C is 1 when {n + 1} is a
  block of C and 0 otherwise.

So every pairing and every -K degree at n + 1 is tied to one at n by a
route that shares nothing with the P/N pairing rule but the values it
pairs.  Only public names are used.
"""

from __future__ import annotations

import pytest

from stablecurves import (
    DistinguishedPartition,
    LabelSet,
    TwoPartition,
    enumerate_distinguished,
    enumerate_stable_two_partitions,
    minus_k_closed,
    pair_divisor_curve,
)


def pushforward(pi: DistinguishedPartition) -> DistinguishedPartition | None:
    """The curve class pi_* C at one label fewer, or None when C is contracted."""
    n = pi.label_set.n
    last = 1 << (n - 1)
    if last in pi.block_masks:
        return None
    return DistinguishedPartition(LabelSet.numbered(n - 1), [m & ~last for m in pi.block_masks])


def pullback(sigma: TwoPartition) -> tuple[TwoPartition, TwoPartition]:
    """The two divisors summing to pi^* D_sigma, label n + 1 joining either part."""
    n = sigma.label_set.n
    up = LabelSet.numbered(n + 1)
    return TwoPartition(up, sigma.part_b_mask | 1 << n), TwoPartition(up, sigma.part_b_mask)


@pytest.mark.parametrize(
    "n, pairs, contracted", [(4, 30, 18), (5, 650, 250), (6, 8_750, 2_250), (7, 95_256, 16_856)]
)
def test_projection_formula_holds_on_every_pair(n, pairs, contracted):
    divisors = [(sigma, pullback(sigma)) for sigma in enumerate_stable_two_partitions(LabelSet.numbered(n))]
    seen = lost = 0
    for curve in enumerate_distinguished(LabelSet.numbered(n + 1)):
        down = pushforward(curve)
        for sigma, (with_b, with_a) in divisors:
            upstairs = pair_divisor_curve(with_b, curve) + pair_divisor_curve(with_a, curve)
            downstairs = 0 if down is None else pair_divisor_curve(sigma, down)
            assert upstairs == downstairs, (sigma.literal(), curve.literal())
            seen += 1
            lost += down is None
    assert (seen, lost) == (pairs, contracted)


@pytest.mark.parametrize("n, classes", [(4, 10), (5, 65), (6, 350), (7, 1_701), (8, 7_770)])
def test_canonical_class_pulls_back_with_the_relative_dualizing_class(n, classes):
    up = LabelSet.numbered(n + 1)
    last = 1 << n
    through_last = [TwoPartition(up, 1 << j | last) for j in range(n)]  # D_{j,n+1}
    seen = 0
    for curve in enumerate_distinguished(up):
        down = pushforward(curve)
        psi = int(last in curve.block_masks)
        omega = psi - sum(pair_divisor_curve(d, curve) for d in through_last)
        pulled_back = 0 if down is None else minus_k_closed(down)
        assert minus_k_closed(curve) == pulled_back - omega, curve.literal()
        seen += 1
    assert seen == classes
