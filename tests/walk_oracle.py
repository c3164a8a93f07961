"""The strategy-walk oracle for ``search``: eta*(eps) by an exact LP over the
silent-allowed strategies, and the click-only minimum error by the same walk.

One bitmask walk over the silent-allowed strategies gives both figures. Per
click pattern over the support it keeps the strategy of lowest forbidden
mass: these are the LP's columns, 12 instead of 729 strategies at n=3, k=2,
148 at n=5 and 506 at n=6, and the column that clicks on the whole support
is the click-only minimum. The walk needs each input's forbidden outcomes to
be none or one output-parity class, as in the GHZ problem. The LP has one
row per supported input, pinning its click mass to the common all-click
probability q, and is solved by the package's integer simplex; every optimum
is checked against the dual certificate the solver returns.

It takes any ``CorrelationProblem``, not only the GHZ one, which is what the
library's rotation-class route needs as a cross-check. Its cost is
(l+1)**(n*k) strategies: about 1 s at n=6, k=2 and n=3, k=4, 39 s at n=7,
k=2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from nonlocal_lab.errors import DEFAULT_BUDGET, Infeasible, InvalidInput, check_budget
from nonlocal_lab.model import CorrelationProblem, DeterministicLhv, MixedLhv, ZERO
from nonlocal_lab.search import SearchReport, check_dual_certificate
from nonlocal_lab.simplex import solve_lp_max

ONE = Fraction(1)

#: one LP constraint row: coefficients and right-hand side
LpRow = tuple[list[Fraction], Fraction]


def _lowest_mass_per_pattern(
    problem: CorrelationProblem,
) -> list[tuple[int, Fraction, DeterministicLhv]]:
    """Per click pattern over the support, the first silent-allowed strategy
    of lowest forbidden mass: ``(pattern, mass, strategy)`` by rank in
    ``itertools.product`` order (the silent symbol sorted last, the last
    party fastest).

    A (party, table) is two masks over the support: where it clicks, and
    where it outputs an odd value. The prefixes grow party by party with
    ``pattern &= click`` and ``parity ^= odd`` from the promise; the
    forbidden set ``pattern & parity`` is weighed by popcounts. A prefix
    reaching the state of an earlier one of its length is dropped, since
    every strategy it starts repeats an earlier one's pattern and mass.
    Raises ``InvalidInput`` at the first input whose target row forbids
    all-click outcomes other than exactly one output-parity class.
    """
    n, support = problem.n, problem.support
    tables = list(itertools.product([*range(problem.l), None], repeat=problem.k))
    outcomes = list(itertools.product(range(problem.l), repeat=n))
    allowed: dict[int, Optional[int]] = {}  # id(row) -> allowed parity, None if unconstrained
    by_setting = [[0] * problem.k for _ in range(n)]  # party -> setting -> inputs
    constrained = promise = 0
    for xi, x in enumerate(support):
        row = problem.target[x]
        if id(row) not in allowed:
            cells = {(sum(a) % 2, row.get(a, 0) == 0) for a in outcomes}
            bad = {parity for parity, forbidden in cells if forbidden}
            if len(bad) > 1 or any((parity, False) in cells for parity in bad):
                raise InvalidInput(f"the forbidden outcomes at input {x} are not one parity class")
            allowed[id(row)] = 1 - bad.pop() if bad else None
        if allowed[id(row)] is not None:
            constrained |= 1 << xi
            promise |= allowed[id(row)] << xi
        for i, v in enumerate(x):
            by_setting[i][v] |= 1 << xi
    masks = [  # one party's per-setting masks are disjoint, so sums are unions
        [
            (
                sum(inputs[v] for v, e in enumerate(t) if e is not None),
                sum(inputs[v] for v, e in enumerate(t) if e is not None and e % 2) & constrained,
            )
            for t in tables
        ]
        for inputs in by_setting
    ]
    weights = [Fraction(problem.mu_weight(x)) for x in support]
    den = lcm(*(w.denominator for w in weights))
    groups: dict[int, int] = {}  # input weight in units of 1/den -> those inputs
    for xi, w in enumerate(weights):
        groups[int(w * den)] = groups.get(int(w * den), 0) | 1 << xi
    s = len(tables)
    # the distinct (pattern, parity) states of the prefixes so far, by first rank
    level = {((1 << len(support)) - 1, promise): 0}
    for party in masks:
        reached: dict[tuple[int, int], int] = {}
        for (pattern, parity), rank in level.items():
            for t, (click, odd) in enumerate(party):
                p = pattern & click
                reached.setdefault((p, (parity ^ odd) & p), rank * s + t)
        level = reached
    kept: dict[int, tuple[int, int]] = {}  # pattern -> (mass in units of 1/den, rank)
    for (p, q), rank in level.items():
        m = sum(w * (q & inputs).bit_count() for w, inputs in groups.items())
        if p not in kept or m < kept[p][0]:
            kept[p] = (m, rank)
    places = [s ** (n - 1 - i) for i in range(n)]  # rank digit of party i, base s
    return [
        (p, Fraction(m, den), DeterministicLhv(tables=tuple(tables[r // d % s] for d in places)))
        for p, (m, r) in sorted(kept.items(), key=lambda item: item[1][1])
    ]


@dataclass(frozen=True)
class DetectorColumns:
    """The columns of the eta* LP for one problem, one per distinct click
    pattern over ``problem.support``.

    A silent-allowed strategy enters the LP only through the supported
    inputs on which every party clicks (a bitmask over the support, bit ``i``
    for ``support[i]``) and its forbidden mass there. Among strategies with
    the same pattern, the one with the lowest forbidden mass dominates: a
    mixture can move its weight onto it, keeping every click row and not
    raising the error row. So the LP over these columns has the same optimum
    as the LP over every strategy.
    """

    problem: CorrelationProblem
    strategies: tuple[DeterministicLhv, ...]
    patterns: tuple[int, ...]
    err_coef: tuple[Fraction, ...]
    enumerated: int


def check_strategy_budget(n: int, k: int, l: int, budget: int) -> int:
    """The (l+1)**(n*k) silent-allowed strategies of an (n, k, l) problem,
    refused over ``budget`` with the largest party count that fits at this
    ``k``."""
    s = l + 1
    return check_budget(lambda m: s ** (m * k), n, budget, "strategies", f"{s}^{n * k}", f"k={k}")


def detector_columns(
    problem: CorrelationProblem, budget: int = DEFAULT_BUDGET
) -> DetectorColumns:
    """Over every silent-allowed deterministic strategy, lexicographic with
    the silent symbol sorted last, keep per click pattern the one with the
    lowest forbidden mass (the first such strategy on ties), in enumeration
    order. The (l+1)**(n*k) strategies are refused over ``budget`` before
    anything is built."""
    total = check_strategy_budget(problem.n, problem.k, problem.l, budget)
    patterns, masses, strategies = zip(*_lowest_mass_per_pattern(problem))
    return DetectorColumns(problem, strategies, patterns, masses, enumerated=total)


def best_deterministic_error_from_columns(columns: DetectorColumns) -> SearchReport:
    """The click-only minimum read off prebuilt columns: the mass and
    strategy of the column whose pattern is the whole support.

    Every click-only strategy has that pattern, and a silent entry on a
    setting no supported input uses can be any output instead without
    changing pattern or mass. So the column's mass is the click-only minimum,
    and its strategy, the first of that mass with silent sorted last, is
    click-only and the first minimum in lexicographic order. ``enumerated``
    counts the click-only strategies up to and including that witness when
    the minimum is 0, and all l**(n*k) of them otherwise.
    """
    problem = columns.problem
    j = columns.patterns.index((1 << len(problem.support)) - 1)
    optimum, witness = columns.err_coef[j], columns.strategies[j]
    if optimum:
        enumerated = problem.l ** (problem.n * problem.k)
    else:  # up to the witness: its click-only rank, entries as base-l digits, party 0 first
        rank = 0
        for entry in itertools.chain.from_iterable(witness.tables):
            rank = rank * problem.l + entry
        enumerated = rank + 1
    return SearchReport(optimum=optimum, witness=witness, enumerated=enumerated)


def best_deterministic_error(
    problem: CorrelationProblem, budget: int = DEFAULT_BUDGET
) -> SearchReport:
    """Exhaustive minimum of the forbidden-outcome error over click-only
    deterministic strategies, read off the eta* LP's columns."""
    return best_deterministic_error_from_columns(detector_columns(problem, budget))


def eta_star_program(
    columns: DetectorColumns, eps_budget: Fraction
) -> tuple[list[Fraction], list[LpRow], list[LpRow]]:
    """The eta* LP over prebuilt columns as ``(objective, eq_rows,
    ub_rows)`` for :func:`solve_lp_max`.

    Variables: one mixture weight per column, then q. Equality rows: the
    weights sum to 1, and each supported input's click mass equals q. The
    one <=-row: the forbidden mass is at most eps * q.
    """
    problem = columns.problem
    m = len(columns.strategies)
    objective = [ZERO] * m + [ONE]
    eq_rows: list[LpRow] = [([ONE] * m + [ZERO], ONE)]
    for xi in range(len(problem.support)):
        row = [ONE if p >> xi & 1 else ZERO for p in columns.patterns] + [-ONE]
        eq_rows.append((row, ZERO))
    ub_rows: list[LpRow] = [(list(columns.err_coef) + [-Fraction(eps_budget)], ZERO)]
    return objective, eq_rows, ub_rows


def eta_star_from_columns(columns: DetectorColumns, eps_budget: Fraction) -> SearchReport:
    """Solve the eta* LP of :func:`eta_star_lp` on prebuilt columns, so a
    sweep over error budgets walks the strategies once. The optimum is
    checked against the solver's dual."""
    if eps_budget < 0:
        raise Infeasible("a negative error budget admits no model")
    m = len(columns.strategies)
    objective, eq_rows, ub_rows = eta_star_program(columns, eps_budget)
    result = solve_lp_max(objective, eq_rows, ub_rows)
    check_dual_certificate(objective, eq_rows, ub_rows, result)
    components = tuple(
        (lhv, w) for lhv, w in zip(columns.strategies, result.solution[:m]) if w > 0
    )
    witness = MixedLhv(components=components) if components else None
    return SearchReport(optimum=result.solution[m], witness=witness, enumerated=columns.enumerated)


def eta_star_lp(
    problem: CorrelationProblem, eps_budget: Fraction, budget: int = DEFAULT_BUDGET
) -> SearchReport:
    """Maximum all-click probability of a mixture of silent-allowed
    deterministic strategies whose all-click probability is the same for
    every supported input and whose conditional error stays within budget:
    an exact rational LP over :func:`detector_columns`."""
    return eta_star_from_columns(detector_columns(problem, budget), eps_budget)
