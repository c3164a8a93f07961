"""Optimal classical figures at small instance sizes: exhaustive minimum
error over deterministic click-only strategies, maximum input-independent
all-click probability via an exact LP, and the communication/efficiency
trade-off table.

One bitmask walk over the silent-allowed strategies gives both figures. Per
click pattern over the support it keeps the strategy of lowest forbidden
mass: these are the LP's columns, 12 instead of 729 strategies at n=3, k=2,
148 at n=5 and 506 at n=6, and the column that clicks on the whole support
is the click-only minimum. The walk needs each input's forbidden outcomes to
be none or one output-parity class, as in the GHZ problem. The integer
simplex (:mod:`nonlocal_lab.simplex`) solves the LP, and every optimum is
checked against the dual certificate the solver returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import (
    DEFAULT_BUDGET,
    CrossCheckMismatch,
    Infeasible,
    InvalidInput,
    check_budget,
    table_fits,
)
from .ghz import OUTPUTS, GhzInstance, broadcast_prefix_stats, ghz_problem
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    MixedLhv,
    ZERO,
)
from .rectangles import (
    ScanResult,
    eta_n_bound,
    rectangle_tradeoff_check,
    scan_rectangles,
)
from .simplex import LpResult, solve_lp_max

ONE = Fraction(1)

#: one LP constraint row: coefficients and right-hand side
LpRow = tuple[list[Fraction], Fraction]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one optimization run, with a re-checkable witness."""

    optimum: Fraction
    witness: object
    enumerated: int


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
    ``k``. It needs only the shape, so a caller can refuse before building
    the problem."""
    s = l + 1
    return check_budget(lambda m: s ** (m * k), n, budget, "strategies", f"{s}^{n * k}", f"k={k}")


def detector_columns(
    problem: CorrelationProblem, budget: int = DEFAULT_BUDGET
) -> DetectorColumns:
    """Over every silent-allowed deterministic strategy, lexicographic with
    the silent symbol sorted last, keep per click pattern the one with the
    lowest forbidden mass (the first such strategy on ties), in enumeration
    order. ``DeterministicLhv`` objects are built only for the kept columns.
    The (l+1)**(n*k) strategies are refused over ``budget`` before anything
    is built, with the largest party count that fits at this ``k``.
    """
    total = check_strategy_budget(problem.n, problem.k, problem.l, budget)
    patterns, masses, strategies = zip(*_lowest_mass_per_pattern(problem))
    return DetectorColumns(problem, strategies, patterns, masses, enumerated=total)


def best_deterministic_error_from_columns(columns: DetectorColumns) -> SearchReport:
    """The click-only minimum of :func:`best_deterministic_error` read off
    prebuilt columns: the mass and strategy of the column whose pattern is
    the whole support.

    Every click-only strategy has that pattern, and a silent entry on a
    setting no supported input uses can be any output instead without
    changing pattern or mass. So the column's mass is the click-only minimum,
    and its strategy, the first of that mass with silent sorted last, is
    click-only and the first minimum in lexicographic order.
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
    deterministic strategies.

    Mixtures cannot do better: the error is linear in the mixing weights, so
    the minimum over the simplex is attained at a vertex. Ties are broken by
    the first strategy in lexicographic order. ``enumerated`` counts the
    strategies up to and including that witness when the minimum is 0, and
    all l**(n*k) of them otherwise. The figure is read off the eta* LP's
    columns (:func:`best_deterministic_error_from_columns`), so ``budget``
    caps the (l+1)**(n*k) silent-allowed strategies they walk: from n=8, k=2
    on, a request is refused at the default budget.
    """
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


def check_dual_certificate(
    objective: Sequence[Fraction],
    eq_rows: Sequence[LpRow],
    ub_rows: Sequence[LpRow],
    result: LpResult,
) -> None:
    """Check exactly that ``result.dual`` proves ``result.objective`` optimal:
    nonnegative on the <=-rows, ``A^T y >= c`` on every column, and
    ``b . y`` equal to the optimum. Weak duality then bounds every feasible
    point, so the verdict does not rest on the simplex alone. Raises
    ``CrossCheckMismatch`` otherwise."""
    rows = list(eq_rows) + list(ub_rows)
    dual = result.dual
    if len(dual) != len(rows):
        raise CrossCheckMismatch(f"dual has {len(dual)} entries for {len(rows)} rows")
    if any(y < 0 for y in dual[len(eq_rows):]):
        raise CrossCheckMismatch("dual is negative on a <=-row")
    if sum((y * b for y, (_, b) in zip(dual, rows)), ZERO) != result.objective:
        raise CrossCheckMismatch("dual objective differs from the LP optimum")
    # A^T y >= c column by column, in integers: y over the lcm of its
    # denominators, coefficients and c over the lcm of theirs
    y_den = lcm(*{y.denominator for y in dual})
    a_den = lcm(
        *{v.denominator for coeffs, _ in rows for v in coeffs},
        *{c.denominator for c in objective},
    )
    active = [
        (y.numerator * (y_den // y.denominator), coeffs)
        for y, (coeffs, _) in zip(dual, rows)
        if y
    ]
    for j, c in enumerate(objective):
        total = 0
        for y, coeffs in active:
            a = coeffs[j]
            if a:
                total += y * a.numerator * (a_den // a.denominator)
        if total < c.numerator * (a_den // c.denominator) * y_den:
            raise CrossCheckMismatch(f"dual is infeasible on LP column {j}")


def eta_star_from_columns(columns: DetectorColumns, eps_budget: Fraction) -> SearchReport:
    """Solve the eta* LP of :func:`eta_star_lp` on prebuilt columns, so a
    sweep over error budgets enumerates the strategies once. The optimum is
    checked against the solver's dual (:func:`check_dual_certificate`)."""
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
    every supported input and whose conditional error stays within budget.

    Exact rational LP: variables are the mixture weights, one per distinct
    click pattern (:func:`detector_columns`), and the common all-click
    probability q, to which each input's click mass is pinned
    (input-independent efficiency). ``budget`` caps the (l+1)**(n*k)
    enumerated strategies.
    """
    return eta_star_from_columns(detector_columns(problem, budget), eps_budget)


@dataclass(frozen=True)
class TradeoffRow:
    """One (bits, error budget) grid point of the trade-off table."""

    c: int
    eps: Fraction
    achievable_eta_n: Optional[Fraction]
    achievable_source: str
    bound_eta_n: Optional[Fraction]


@dataclass(frozen=True)
class TradeoffTable:
    instance: GhzInstance
    delta_grid: tuple[Fraction, ...]
    scans: tuple[ScanResult, ...]
    rows: tuple[TradeoffRow, ...]


def _bound_eta_n(
    inst: GhzInstance, scans: Sequence[ScanResult], c: int, eps: Fraction
) -> Optional[Fraction]:
    """Best rectangle-cap bound on eta**n at the grid point, at most 1."""
    bounds = [eta_n_bound(s.delta, s.r_cap, c, eps, inst.n) for s in scans if s.delta < 1]
    bounds = [b for b in bounds if b is not None]
    return min(min(bounds), ONE) if bounds else None


def tradeoff_table(
    inst: GhzInstance,
    c_grid: Sequence[int],
    eps_grid: Sequence[Fraction],
    delta_grid: Sequence[Fraction] = (Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)),
    budget: int = DEFAULT_BUDGET,
) -> TradeoffTable:
    """Achievable versus bound all-click probability over a (c, eps) grid.

    Achievable points come from the broadcast-prefix family (converted to
    detector models, so eta**n = 2**-cost at the prefix error) and, when the
    silent-allowed strategies fit the table rule (``errors.table_fits``), from
    the exact no-communication LP. Prefix costs rise strictly with the
    prefix, so at each eps the best prefix is the first one within eps, when
    its cost is at most c. Bounds come from rectangle scans, capped by
    ``budget``, at the given advantage thresholds; each achievable entry
    must stay below the bound entry (checked by callers and the test suite;
    a violation would signal an implementation bug). A negative bit count
    or error budget is refused before the scan.
    """
    if any(c < 0 for c in c_grid):
        raise InvalidInput(f"bit count c must be >= 0, got {min(c_grid)}")
    if any(eps < 0 for eps in eps_grid):
        raise Infeasible("a negative error budget admits no model")
    scans = scan_rectangles(inst, delta_grid, budget=budget)  # may refuse: do it first
    prefix_points = [broadcast_prefix_stats(inst, j) for j in range(inst.n + 1)]
    cheapest = {eps: next((p for p in prefix_points if p.eps <= eps), None) for eps in eps_grid}
    lp_optimum: dict[Fraction, Fraction] = {}
    if table_fits((OUTPUTS + 1) ** (inst.n * inst.k), budget):  # the LP's strategies
        columns = detector_columns(ghz_problem(inst))
        lp_optimum = {eps: eta_star_from_columns(columns, eps).optimum for eps in set(eps_grid)}

    rows: list[TradeoffRow] = []
    for c in c_grid:
        for eps in eps_grid:
            best, source = None, "none"
            p = cheapest[eps]
            if p is not None and p.cost <= c:
                best, source = p.eta_n_converted, f"broadcast_prefix[{p.prefix}]"
            if eps in lp_optimum and (best is None or lp_optimum[eps] > best):
                best, source = lp_optimum[eps], "eta_star_lp"
            rows.append(
                TradeoffRow(
                    c=c,
                    eps=eps,
                    achievable_eta_n=best,
                    achievable_source=source,
                    bound_eta_n=_bound_eta_n(inst, scans, c, eps),
                )
            )
    return TradeoffTable(
        instance=inst, delta_grid=tuple(delta_grid), scans=scans, rows=tuple(rows)
    )


def model_respects_rectangle_bound(
    inst: GhzInstance,
    scans: Sequence[ScanResult],
    c: int,
    eta_n: Fraction,
    eps: Fraction,
) -> bool:
    """Check one measured (c, eta**n, eps) triple against every scanned cap."""
    return all(
        rectangle_tradeoff_check(s.delta, s.r_cap, c, eta_n, eps, inst.n)
        for s in scans
        if s.delta < 1
    )
