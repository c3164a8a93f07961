#!/usr/bin/env python3
"""Rectangles are the shape of classical explanations.

A deterministic local model maps each outcome's preimage onto a product of
per-party setting sets. Scanning all such rectangles for their worst-case
weight at a given advantage threshold yields an inequality every classical
model (with any communication and detector efficiency) must satisfy.
"""

import random
import sys
from fractions import Fraction

from nonlocal_lab import (
    DeterministicLhv,
    Edge,
    GhzInstance,
    Leaf,
    MixedProtocol,
    Node,
    ProtocolTree,
    Rectangle,
    advantage_bias_relation,
    error_probability,
    ghz_problem,
    induced_distribution,
    mixed_cost,
    mixed_lhv_metrics,
    rectangle_stats,
    rectangle_tradeoff_check,
    residue_counts,
    scan_rectangles,
    to_detector_model,
)


def check(ok: bool, what: str) -> None:
    """Exit 1 with a one-line message unless ``ok`` (kept under ``python -O``)."""
    if not ok:
        sys.exit(f"rectangle_tradeoff: {what} failed")


def random_protocol(rng: random.Random, n: int, k: int) -> MixedProtocol:
    def leaf() -> Leaf:
        return Leaf(
            lhv=DeterministicLhv(
                tables=tuple(
                    tuple(rng.randrange(2) for _ in range(k)) for _ in range(n)
                )
            )
        )

    def node(depth: int):
        if depth >= 3 or rng.random() < 0.4:
            return leaf()
        return Node(
            party=rng.randrange(n),
            edges=tuple(
                Edge(inputs=frozenset({v}), child=node(depth + 1)) for v in range(k)
            ),
        )

    tree = ProtocolTree(n=n, k=k, root=node(0))
    return MixedProtocol(components=((tree, Fraction(1)),))


def main() -> None:
    inst = GhzInstance(n=3, k=2)

    cube = Rectangle(k=2, sets=(frozenset({0, 1}),) * 3)
    print("The full input cube, counted by residue of the setting sum mod 4:")
    print(" ", residue_counts(cube, 4))
    stats = rectangle_stats(cube, inst)
    print(
        f"  parity classes inside the promise: n0={stats.n0}, n1={stats.n1}, bias = {stats.bias}"
    )
    check(advantage_bias_relation(stats, ghz_problem(inst)), "the advantage-bias relation")
    print(
        f"  max outcome advantage {stats.max_advantage} = (1+bias)/(2+bias), "
        "also over every click outcome\n"
    )

    print("Exact weight caps over all rectangles meeting a threshold:")
    deltas = (Fraction(1, 2), Fraction(3, 4), Fraction(7, 8))
    scans = scan_rectangles(inst, deltas)
    for res in scans:
        print(f"  advantage >= {res.delta}: max weight {res.r_cap} "
              f"(witness sets {[sorted(s) for s in res.witness]})")

    print("\nEvery classical model obeys the resulting inequality; checking")
    print("20 random broadcast protocols and their detector conversions:")
    rng = random.Random(2024)
    problem = ghz_problem(inst)
    checks = 0
    for _ in range(20):
        mp = random_protocol(rng, 3, 2)
        c = mixed_cost(mp)
        eps = error_probability(induced_distribution(mp, problem), problem)
        met = mixed_lhv_metrics(to_detector_model(mp), problem)
        for s in scans:
            check(
                rectangle_tradeoff_check(s.delta, s.r_cap, c, Fraction(1), eps, 3),
                f"the trade-off check of a {c}-bit protocol at delta={s.delta}",
            )
            check(
                rectangle_tradeoff_check(s.delta, s.r_cap, 0, met.eta_n, met.eps, 3),
                f"the trade-off check of its detector model at delta={s.delta}",
            )
            checks += 2
    print(f"  all {checks} checks hold exactly.")


if __name__ == "__main__":
    main()
