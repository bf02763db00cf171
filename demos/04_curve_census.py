"""The complete census of boundary curves.

Every one-dimensional boundary class carries a fixed number of actual
boundary curves, a product of double factorials over its block sizes.
The census enumerates every curve, groups them by unlabeled shape and by
class shape, and cross-checks the counts.
"""

from __future__ import annotations

from stablecurves import (
    DistinguishedPartition,
    LabelSet,
    classes_by_shape,
    enumerate_curve_trees,
    pi_of_tree,
    run_census,
)


def main() -> None:
    for n in (6, 7):
        report = run_census(LabelSet.numbered(n))
        print(f"== census for n={n} ==")
        print(report.to_table(), end="")
        print(f"totals: {report.total_curves} curves in {report.total_classes} classes\n")

    s = LabelSet.numbered(7)
    pi = DistinguishedPartition.of(s, [[1, 2, 3, 4], [5], [6], [7]])
    curves = sum(1 for t in enumerate_curve_trees(s) if pi_of_tree(t) == pi)
    print(f"curves in the single class {pi.literal()}: {curves}")

    print("\nclasses by shape for n=7:")
    for shape, count in sorted(classes_by_shape(s).items(), reverse=True):
        print(f"  {'+'.join(str(b) for b in shape)}: {count} classes")


if __name__ == "__main__":
    main()
