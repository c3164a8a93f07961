"""Exact rational linear programming: two-phase simplex on an integer,
fraction-free tableau (the integer-preserving pivot of E. H. Bareiss,
*Math. Comp.* 22, 565 (1968)).

Each input row is scaled once by the lcm of its denominators, so every
coefficient is an integer and the starting basis is diag(s_1, ..., s_m). The
tableau then holds integer rows ``R`` that share one positive divisor ``d``:
the rational tableau is ``R / d``, and ``d`` is the absolute value of the
determinant of the current basis in the scaled matrix (``s_1 * ... * s_m`` at
the start). Pivoting on entry ``p = R[r][c]`` updates every other row in
place by the exact division ``(a * p - f * b) // d``, leaves the pivot row as
it is, and makes ``p`` the new divisor; a negative pivot (possible only when
driving artificials out after phase one) flips the sign of every row so that
the divisor stays positive. The objective row carries one extra positive
factor, the lcm of the objective's denominators, which changes none of its
signs.

Entering columns are chosen by the sign of the objective row, ratios are
compared by cross-multiplication, and Bland's rule (lowest entering index,
lowest basic index among tied ratios) prevents cycling, so the pivot
sequence is exactly that of the textbook rational tableau. The optimal dual
is read off the final objective row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .errors import Infeasible

ZERO = Fraction(0)


@dataclass(frozen=True)
class LpResult:
    """``dual`` holds one multiplier per constraint row, the equality rows
    first and then the <=-rows, each group in the order given: ``b . dual``
    equals ``objective``, ``A^T dual >= c``, and the <=-row multipliers are
    nonnegative."""

    objective: Fraction
    solution: tuple[Fraction, ...]
    iterations: int
    dual: tuple[Fraction, ...]


def _integer_row(coeffs: Sequence[Fraction], b: Fraction) -> tuple[int, list[int]]:
    """The row's scale (lcm of its denominators) and its scaled integer
    coefficients, right-hand side last. Entries are ``int`` or ``Fraction``."""
    values = [*coeffs, b]
    scale = lcm(*{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class _Tableau:
    """Integer constraint rows and an objective row over one divisor."""

    def __init__(self, rows: list[list[int]], basis: list[int], divisor: int) -> None:
        self.rows = rows
        self.basis = basis
        self.divisor = divisor

    def pivot(self, obj: Optional[list[int]], row: int, col: int) -> None:
        """Bring column ``col`` into the basis at ``row``, updating the
        constraint rows and ``obj`` (when given) in place."""
        prow = self.rows[row]
        p = prow[col]
        d = self.divisor
        for i, r in enumerate(self.rows):
            if i != row:
                f = r[col]
                if f:
                    r[:] = [(a * p - f * b) // d for a, b in zip(r, prow)]
                else:
                    r[:] = [a * p // d for a in r]
        if obj is not None:
            f = obj[col]
            obj[:] = [(a * p - f * b) // d for a, b in zip(obj, prow)]
        if p < 0:
            for r in self.rows:
                r[:] = [-a for a in r]
            if obj is not None:
                obj[:] = [-a for a in obj]
            p = -p
        self.divisor = p
        self.basis[row] = col

    def run(self, obj: list[int], ncols: int) -> int:
        """Maximize the objective row over entering columns ``< ncols``
        (phase two keeps the artificials, the last columns, out). Returns
        the number of pivots."""
        rows, basis = self.rows, self.basis
        iterations = 0
        while True:
            col = -1
            for j in range(ncols):
                if obj[j] > 0:
                    col = j
                    break
            if col < 0:
                return iterations
            row = -1
            best_num = best_den = 0
            for i, r in enumerate(rows):
                coef = r[col]
                if coef > 0:
                    if row < 0:
                        row, best_num, best_den = i, r[-1], coef
                        continue
                    lhs = r[-1] * best_den
                    rhs = best_num * coef
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                        row, best_num, best_den = i, r[-1], coef
            if row < 0:
                raise Infeasible("objective is unbounded above")
            self.pivot(obj, row, col)
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
    nreal = nvars + nslack
    ncols = nreal + nart
    rows: list[list[int]] = []
    scales: list[int] = []
    # <=-rows first (slack basic), then equality rows (artificial basic)
    for idx, (coeffs, b) in enumerate(list(ub_rows) + list(eq_rows)):
        scale, values = _integer_row(coeffs, b)
        row = values[:-1] + [0] * (nslack + nart) + values[-1:]
        row[nvars + idx] = scale
        rows.append(row)
        scales.append(scale)
    divisor = prod(scales)
    # the rational tableau starts as the unscaled rows: R = divisor * row
    for row, s in zip(rows, scales):
        m = divisor // s
        row[:] = [a * m for a in row]
    tab = _Tableau(rows, list(range(nvars, ncols)), divisor)

    iterations = 0
    if nart:
        # phase one: maximize -(sum of artificials), expressed in the
        # nonbasic columns by adding the artificial rows
        phase1 = [0] * nreal + [-divisor] * nart + [0]
        for r in rows[nslack:]:
            phase1 = [a + c for a, c in zip(phase1, r)]
        iterations += tab.run(phase1, ncols)
        if phase1[-1] != 0:
            raise Infeasible("equality constraints admit no feasible point")
        # drive any artificial still in the basis out of it (degenerate rows)
        for i in range(len(rows)):
            if tab.basis[i] >= nreal:
                r = rows[i]
                for j in range(nreal):
                    if r[j] != 0:
                        tab.pivot(None, i, j)
                        break

    # phase two objective, scaled by ``weight`` to integers and expressed in
    # the nonbasic columns: weight * (divisor * c - sum over basic b of c_b * R_b)
    weight = lcm(*{c.denominator for c in objective})
    cost = [c.numerator * (weight // c.denominator) for c in objective]
    obj = [c * tab.divisor for c in cost] + [0] * (nslack + nart + 1)
    for r, b in zip(rows, tab.basis):
        if b < nvars and cost[b] != 0:
            f = cost[b]
            obj = [a - f * v for a, v in zip(obj, r)]
    iterations += tab.run(obj, nreal)

    d = tab.divisor
    solution = [ZERO] * nvars
    for r, b in zip(rows, tab.basis):
        if b < nvars:
            solution[b] = Fraction(r[-1], d)
    # the slack or artificial column of tableau row i reads -weight * d * y_i
    den = -weight * d
    ub_dual = [Fraction(obj[nvars + i], den) for i in range(nslack)]
    eq_dual = [Fraction(obj[nreal + i], den) for i in range(nart)]
    return LpResult(
        objective=sum(c * v for c, v in zip(objective, solution)),
        solution=tuple(solution),
        iterations=iterations,
        dual=tuple(eq_dual + ub_dual),
    )
