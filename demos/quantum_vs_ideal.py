#!/usr/bin/env python3
"""Walk through the quantum side of the GHZ scenario.

Shows the Born probabilities computed from explicit amplitude products, the
ideal parity target they collapse to on valid inputs, and the exact agreement
between the two over a grid of instance sizes.
"""

import itertools

from nonlocal_lab import (
    GhzInstance,
    equivalence_max_deviation,
    ghz_problem,
    promise_bit,
    quantum_probability,
    target_probability,
    valid_inputs,
)


def main() -> None:
    inst = GhzInstance(n=3, k=2)
    print("Three parties, two settings each. Valid inputs sum to 0 mod k.\n")

    print("input x    forced bit   outcome a   quantum     ideal target")
    for x in valid_inputs(inst):
        bit = promise_bit(inst, x)
        for a in itertools.product(range(2), repeat=3):
            q = quantum_probability(inst, x, a)
            t = target_probability(inst, x, a)
            marker = "allowed" if t > 0 else "forbidden"
            print(f"{x}   {bit}          {a}  {q:.6f}    {str(t):>5}  {marker}")
        print()

    print("Off the promise the state still answers, just without the parity")
    print("constraint, e.g. x=(1,0,0), a=(0,0,0):",
          f"{quantum_probability(inst, (1, 0, 0), (0, 0, 0)):.6f}\n")

    print("Exhaustive agreement between the amplitude computation and the")
    print("ideal target over every valid input (one per orbit under permuting")
    print("parties) and click outcome, as probabilities and times 2^(n-1):")
    for n in range(2, 7):
        for k in (2, 4, 8):
            dev = equivalence_max_deviation(GhzInstance(n=n, k=k))
            print(f"  n={n} k={k}: max |quantum - target| = {dev.absolute:.3e},"
                  f" times 2^(n-1) {dev.relative:.3e}")

    problem = ghz_problem(inst)
    print(f"\nInduced correlation problem: {len(problem.support)} valid inputs,")
    print(f"uniform weight {problem.mu_weight(problem.support[0])} each.")


if __name__ == "__main__":
    main()
