"""Exact rational linear programming via textbook two-phase simplex.

Problem sizes in this package are tiny (the eta* LP keeps one column per
distinct click pattern: 8 to 42 columns up to n=4, 148 at n=5, k=2, and a
handful of rows), so a dense tableau with ``fractions.Fraction`` entries and
Bland's anti-cycling pivot rule is both fast enough and verdict-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import Infeasible

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LpResult:
    objective: Fraction
    solution: tuple[Fraction, ...]
    iterations: int


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [v * inv for v in tableau[row]]
    refrow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            tableau[i] = [a - factor * b for a, b in zip(r, refrow)]
    basis[row] = col


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    ncols: int,
    allowed: Optional[set[int]] = None,
) -> int:
    """Maximize the objective stored in the last tableau row, Bland's rule.

    ``allowed`` restricts entering columns (used to keep artificials out in
    phase two). Returns the number of pivots performed.
    """
    rows = len(tableau) - 1
    iterations = 0
    while True:
        obj = tableau[-1]  # pivoting replaces row objects, re-read each round
        col = -1
        for j in range(ncols):
            if (allowed is None or j in allowed) and obj[j] > 0:
                col = j
                break
        if col < 0:
            return iterations
        row = -1
        best: Optional[Fraction] = None
        for i in range(rows):
            coef = tableau[i][col]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row < 0:
            raise Infeasible("objective is unbounded above")
        _pivot(tableau, basis, row, col)
        iterations += 1


def solve_lp_max(
    objective: Sequence[Fraction],
    eq_rows: Sequence[tuple[Sequence[Fraction], Fraction]],
    ub_rows: Sequence[tuple[Sequence[Fraction], Fraction]],
) -> LpResult:
    """Maximize ``objective . x`` subject to equality and <=-rows, x >= 0.

    All right-hand sides must be nonnegative (true for every program built in
    this package). Raises ``Infeasible`` when no feasible point exists.
    """
    nvars = len(objective)
    for _, b in list(eq_rows) + list(ub_rows):
        if b < 0:
            raise Infeasible("right-hand sides must be nonnegative")

    nslack = len(ub_rows)
    nart = len(eq_rows)
    ncols = nvars + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []

    for idx, (coeffs, b) in enumerate(ub_rows):
        row = [Fraction(c) for c in coeffs] + [ZERO] * (nslack + nart) + [Fraction(b)]
        row[nvars + idx] = ONE
        tableau.append(row)
        basis.append(nvars + idx)
    for idx, (coeffs, b) in enumerate(eq_rows):
        row = [Fraction(c) for c in coeffs] + [ZERO] * (nslack + nart) + [Fraction(b)]
        row[nvars + nslack + idx] = ONE
        tableau.append(row)
        basis.append(nvars + nslack + idx)

    iterations = 0
    if nart:
        # phase one: maximize -(sum of artificials)
        phase1 = [ZERO] * (ncols + 1)
        for j in range(nvars + nslack + nart):
            if j >= nvars + nslack:
                phase1[j] = -ONE
        tableau.append(phase1)
        # express the objective in terms of the nonbasic columns
        for i, b in enumerate(basis):
            if b >= nvars + nslack:
                tableau[-1] = [a + c for a, c in zip(tableau[-1], tableau[i])]
        iterations += _run_simplex(tableau, basis, ncols)
        if tableau[-1][-1] != 0:
            raise Infeasible("equality constraints admit no feasible point")
        tableau.pop()
        # drive any artificial still in the basis out of it (degenerate rows)
        for i, b in enumerate(basis):
            if b >= nvars + nslack:
                for j in range(nvars + nslack):
                    if tableau[i][j] != 0:
                        _pivot(tableau, basis, i, j)
                        break

    real_cols = set(range(nvars + nslack))
    obj_row = [Fraction(c) for c in objective] + [ZERO] * (nslack + nart) + [ZERO]
    tableau.append(obj_row)
    for i, b in enumerate(basis):
        if tableau[-1][b] != 0:
            factor = tableau[-1][b]
            tableau[-1] = [a - factor * c for a, c in zip(tableau[-1], tableau[i])]
    iterations += _run_simplex(tableau, basis, ncols, allowed=real_cols)

    solution = [ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[i][-1]
    return LpResult(
        objective=sum(c * v for c, v in zip(objective, solution)),
        solution=tuple(solution),
        iterations=iterations,
    )
