"""Closed forms for the CLI workloads, computed without the package.

The census is checked against the Stirling number S(n, 4), against the
curve count summed over block-size shapes (a shape with sizes b_i has
n! / (prod b_i! * prod m_j!) classes, m_j counting repeated sizes, and
each class carries prod (2 b_i - 3)!! curves), and byte for byte against
the output recorded in ``expected/``.  The matrix rank is checked against
the divisor count 2^(n-1) - n - 1 and the Picard rank
2^(n-1) - n(n-1)/2 - 1.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"


def stirling4(n: int) -> int:
    """Partitions of n labels into exactly 4 nonempty blocks."""
    return (4**n - 4 * 3**n + 6 * 2**n - 4) // 24


def shapes(n: int) -> list[tuple[int, int, int, int]]:
    """Block-size multisets of 4-block partitions, sizes descending."""
    out = []
    for a in range(n - 3, 0, -1):
        for b in range(min(a, n - a - 2), 0, -1):
            for c in range(min(b, n - a - b - 1), 0, -1):
                d = n - a - b - c
                if 1 <= d <= c:
                    out.append((a, b, c, d))
    return out


def classes_of_shape(n: int, shape) -> int:
    denom = math.prod(math.factorial(b) for b in shape)
    denom *= math.prod(math.factorial(m) for m in Counter(shape).values())
    return math.factorial(n) // denom


def curves_per_class(shape) -> int:
    return math.prod(math.prod(range(1, 2 * b - 2, 2)) for b in shape)


def total_curves(n: int) -> int:
    return sum(classes_of_shape(n, s) * curves_per_class(s) for s in shapes(n))


def divisor_count(n: int) -> int:
    return 2 ** (n - 1) - n - 1


def picard_rank(n: int) -> int:
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


def expected_output(name: str) -> bytes | None:
    path = EXPECTED / name
    return path.read_bytes() if path.is_file() else None


def _envelope(stdout: bytes, problems: list[str]):
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        problems.append("stdout is not a JSON envelope")
        return None


def check_census(stdout: bytes, n: int, expected: bytes | None) -> list[str]:
    """Problems with a ``census --n n`` JSON envelope; empty when correct."""
    problems: list[str] = []
    if expected is not None and stdout != expected:
        problems.append("stdout differs from the recorded output")
    result = _envelope(stdout, problems)
    if result is None:
        return problems
    try:
        totals = result["totals"]
        if totals["classes"] != stirling4(n):
            problems.append(f"classes {totals['classes']} != S({n},4) = {stirling4(n)}")
        if totals["curves"] != total_curves(n):
            problems.append(f"curves {totals['curves']} != {total_curves(n)}")
        if sum(t["curve_count"] for t in result["types"]) != total_curves(n):
            problems.append("type counts do not sum to the curve total")
        seen = set()
        for rec in result["classes"]:
            shape = tuple(rec["shape"])
            seen.add(shape)
            big = sum(1 for b in shape if b >= 2)
            if (
                rec["class_count"] != classes_of_shape(n, shape)
                or rec["curves_per_class"] != curves_per_class(shape)
                or sum(rec["curves_per_class_by_type"].values()) != curves_per_class(shape)
                or rec["minus_k"] != 2 - big
            ):
                problems.append(f"class record for shape {shape} is wrong")
        if seen != set(shapes(n)):
            problems.append("class shapes are not the 4-part compositions of n")
    except (KeyError, TypeError, AttributeError):
        problems.append("census envelope is missing fields")
    return problems


def check_rank(stdout: bytes, n: int) -> list[str]:
    """Problems with a ``matrix --n n --action rank`` envelope."""
    problems: list[str] = []
    result = _envelope(stdout, problems)
    if result is None:
        return problems
    want = {
        "rows": divisor_count(n),
        "cols": stirling4(n),
        "rank": picard_rank(n),
        "picard_rank": picard_rank(n),
        "verdict": "equal",
    }
    for key, value in want.items():
        got = result.get(key) if isinstance(result, dict) else None
        if got != value:
            problems.append(f"{key} {got!r} != {value!r}")
    return problems
