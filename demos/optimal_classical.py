#!/usr/bin/env python3
"""Exactly optimal classical strategies at desk scale.

Reads every deterministic strategy's (click, wrong) counts off rotation
classes of per-party tables: the least error of a click-only strategy for
the smallest instances (the three-party, two-setting case is the classic
parity paradox), and the exact best all-click probability of silent-detector
models from a two-row LP over those counts. Then prints the
achievable-versus-bound table.
"""

from fractions import Fraction

from nonlocal_lab import (
    GhzInstance,
    class_points,
    click_only_minimum,
    eta_star,
    tradeoff_table,
)


def main() -> None:
    p3 = class_points(GhzInstance(n=3, k=2))
    det = click_only_minimum(p3)
    print("Three parties, two settings, no communication, all detectors click:")
    print(f"  minimum error over {det.enumerated} product classes of strategies: {det.optimum}")
    print(f"  one optimal witness (tables per party): {det.witness.tables}")

    p2 = class_points(GhzInstance(n=2, k=2))
    print(f"\nTwo parties are exactly classical: minimum error "
          f"{click_only_minimum(p2).optimum}")

    print("\nAllowing silent detectors, the exact LP maximizes the")
    print("input-independent all-click probability q = eta^n:")
    for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4)):
        lp = eta_star(p3, eps)
        print(f"  error budget {str(eps):>4}: eta^3 = {lp.optimum}")

    print("\nTrade-off table (achievable from constructed strategies vs the")
    print("rectangle-cap bound):")
    table = tradeoff_table(
        GhzInstance(n=3, k=2), c_grid=[0, 1, 2, 3], eps_grid=[Fraction(0)]
    )
    print("  c  eps  achievable  source                 bound")
    for row in table.rows:
        print(
            f"  {row.c}  {str(row.eps):>3}  {str(row.achievable_eta_n):>9}"
            f"  {row.achievable_source:<20}  {row.bound_eta_n}"
        )


if __name__ == "__main__":
    main()
