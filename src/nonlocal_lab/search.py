"""Optimal classical figures of the GHZ problem: eta*(eps), the largest
input-independent all-click probability of a local model with silent
detectors at error at most eps; the least error of a click-only strategy;
and the communication/efficiency trade-off table.

A party's table t is the polynomial P_t, the sum of z^(x + k*t(x)) over its
clicks, in Z[z]/(z^(2k) - 1). In a strategy's product, the coefficient of
z^0 counts the valid inputs where all parties click with the promised
output parity, and that of z^k those with the other parity. z^s P_t is
again a table's polynomial (:func:`rotate`), so one product per multiset of
n rotation types (:func:`table_types`), read at its 2k rotations, gives
every strategy's (click, wrong) counts, with no walk over strategies.

Shifting the settings by s with sum(s) = 0 mod 2k keeps these counts and
acts transitively on the valid inputs, so a mixture averaged over the shifts
clicks on every valid input with its mean click mass. The LP "every valid
input clicks with probability q, wrong mass at most eps*q" thus has the
optimum of a two-row LP over the points (m, e) = counts / k**(n-1):
maximise sum w*m with sum w = 1 and sum w*(e - eps*m) <= 0. An optimum
mixes at most two strategies. Only click-only strategies click everywhere,
so the click-only minimum is the least e at m = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cyclic import indicator, product
from .errors import (
    DEFAULT_BUDGET,
    CrossCheckMismatch,
    Infeasible,
    InvalidInput,
    check_budget,
    table_fits,
)
from .ghz import OUTPUTS, GhzInstance, broadcast_prefix_stats, ghz_problem
from .model import ZERO, DeterministicLhv, Entry, MixedLhv, _click_rows, _score, mixed_lhv_metrics
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

#: the shifts an eta* witness's strategies are averaged over
AVERAGED_OVER = "setting shifts s in Z_2k^n with sum(s) = 0 mod 2k"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one optimization run, with a re-checkable witness."""

    optimum: Fraction
    witness: object
    enumerated: int


def _poly(table: Sequence[Entry], k: int) -> tuple[int, ...]:
    """The table's polynomial as a count vector over Z_2k."""
    return indicator(2 * k, (x + k * a for x, a in enumerate(table) if a is not None))


def rotate(table: Sequence[Entry], s: int, k: int) -> tuple[Entry, ...]:
    """The binary table whose polynomial is z^s times ``table``'s: setting
    x moves to (x + s) mod k, its output flipped on each wrap past k - 1."""
    out: list[Entry] = [None] * k
    for x, a in enumerate(table):
        if a is not None:
            e = (x + k * a + s) % (2 * k)
            out[e % k] = e // k
    return tuple(out)


@functools.lru_cache(maxsize=16)
def table_types(k: int) -> tuple[tuple[Entry, ...], ...]:
    """One binary table per rotation class of the nonzero table polynomials,
    the first of its class in ``itertools.product`` order over (0, 1, None)."""
    first: dict[tuple[int, ...], tuple[Entry, ...]] = {}
    for t in itertools.product((0, 1, None), repeat=k):
        v = _poly(t, k)
        if any(v):
            first.setdefault(min(v[s:] + v[:s] for s in range(2 * k)), t)
    return tuple(first.values())


@functools.lru_cache(maxsize=16)
def type_count(k: int) -> int:
    """The number of :func:`table_types` by Burnside's lemma: a rotation by
    s fixes the polynomials constant mod d = gcd(s, 2k), only 0 when d
    divides k (a table clicks once at most on x and x + k), else 3^(d/2)."""
    m = 2 * k
    fixed = sum(1 if k % d == 0 else 3 ** (d // 2) for d in (math.gcd(s, m) for s in range(m)))
    return fixed // m - 1


def check_class_budget(n: int, k: int, budget: int) -> int:
    """The work of :func:`class_points`, C(T+n-1, n) product classes (multisets
    of the T table types) of n factors each, refused over ``budget`` before
    any table is typed; from T >= 3^k/(4k) alone when far past it."""
    log2_types = k * math.log2(3) - math.log2(4 * k)

    def log2_at(m: int) -> float:  # C(T+m-1, m) >= max(T, (T/m)^m)
        spread = log2_types - math.log2(m)
        return max(log2_types, m * spread if spread > 0 else 0.0) + math.log2(m)

    return check_budget(
        lambda m: math.comb(type_count(k) + m - 1, m) * m,
        n,
        budget,
        "product-class factors",
        f"C(T+{n - 1},{n})*{n} (T~3^{k}/{2 * k} table types)",
        f"k={k}",
        log2_at=log2_at,
    )


@dataclass(frozen=True)
class ClassPoints:
    """Per click count over the valid inputs, the least wrong count of a
    deterministic strategy and the first strategy found with it;
    ``enumerated`` counts the product classes multiplied."""

    inst: GhzInstance
    least_wrong: Mapping[int, tuple[int, DeterministicLhv]]
    enumerated: int


def class_points(inst: GhzInstance, budget: int = DEFAULT_BUDGET) -> ClassPoints:
    """One ``cyclic.product`` per multiset of n table types, in
    ``combinations_with_replacement`` order, read at rotations r upward; the
    strategy at rotation r has party 0's table turned by -r."""
    n, k = inst.n, inst.k
    check_class_budget(n, k, budget)
    reps = table_types(k)
    vectors = [_poly(t, k) for t in reps]
    m = 2 * k
    best: dict[int, tuple[int, tuple[int, ...], int]] = {}
    classes = 0
    for combo in itertools.combinations_with_replacement(range(len(reps)), n):
        classes += 1
        p = product([vectors[i] for i in combo])
        for r in range(m):
            wrong = p[(r + k) % m]
            clicks = p[r] + wrong
            if clicks not in best or wrong < best[clicks][0]:
                best[clicks] = (wrong, combo, r)
    least_wrong = {}
    for clicks, (wrong, combo, r) in best.items():
        tables = (rotate(reps[combo[0]], -r, k), *(reps[i] for i in combo[1:]))
        least_wrong[clicks] = (wrong, DeterministicLhv(tables=tables))
    return ClassPoints(inst=inst, least_wrong=least_wrong, enumerated=classes)


def check_dual_certificate(
    objective: Sequence[Fraction],
    eq_rows: Sequence[LpRow],
    ub_rows: Sequence[LpRow],
    result: LpResult,
) -> None:
    """Check exactly that ``result.dual`` proves ``result.objective`` optimal
    (nonnegative on the <=-rows, ``A^T y >= c`` on every column, ``b . y``
    equal to the optimum), so the verdict does not rest on the simplex
    alone; for the eta* LP it is the supporting line of the points."""
    rows = list(eq_rows) + list(ub_rows)
    dual = result.dual
    if len(dual) != len(rows):
        raise CrossCheckMismatch(f"dual has {len(dual)} entries for {len(rows)} rows")
    if any(y < 0 for y in dual[len(eq_rows):]):
        raise CrossCheckMismatch("dual is negative on a <=-row")
    if sum((y * b for y, (_, b) in zip(dual, rows)), ZERO) != result.objective:
        raise CrossCheckMismatch("dual objective differs from the LP optimum")
    active = [(y, coeffs) for y, (coeffs, _) in zip(dual, rows) if y]
    for j, c in enumerate(objective):
        if sum((y * coeffs[j] for y, coeffs in active), ZERO) < c:
            raise CrossCheckMismatch(f"dual is infeasible on LP column {j}")


def eta_star(points: ClassPoints, eps_budget: Fraction) -> SearchReport:
    """eta*(eps), the two-row LP over the points, checked against its dual.
    The witness's at most two strategies reach eta* on every valid input
    once averaged over the shifts (:func:`shift_average`)."""
    if eps_budget < 0:
        raise Infeasible("a negative error budget admits no model")
    total = points.inst.valid_input_count()
    clicks = sorted(points.least_wrong)
    objective = [Fraction(c, total) for c in clicks]
    eq_rows: list[LpRow] = [([ONE] * len(clicks), ONE)]
    errors = [Fraction(points.least_wrong[c][0], total) - eps_budget * m
              for c, m in zip(clicks, objective)]
    ub_rows: list[LpRow] = [(errors, ZERO)]
    result = solve_lp_max(objective, eq_rows, ub_rows)
    check_dual_certificate(objective, eq_rows, ub_rows, result)
    used = [(points.least_wrong[c][1], w) for c, w in zip(clicks, result.solution) if w]
    witness = MixedLhv(components=tuple(used))
    return SearchReport(optimum=result.objective, witness=witness, enumerated=points.enumerated)


def click_only_minimum(points: ClassPoints) -> SearchReport:
    """The least error of a click-only strategy, the least wrong count at
    click mass 1; no mixture does better, the error being linear."""
    total = points.inst.valid_input_count()
    wrong, witness = points.least_wrong[total]
    return SearchReport(Fraction(wrong, total), witness, points.enumerated)


def strategy_counts(lhv: DeterministicLhv) -> tuple[int, int]:
    """One binary strategy's (click, wrong) counts over the valid inputs,
    from the product of its own tables' polynomials."""
    k = lhv.k
    p = product([_poly(t, k) for t in lhv.tables])
    return p[0] + p[k], p[k]


def shift_average(witness: MixedLhv, k: int) -> MixedLhv:
    """``witness`` averaged over the k**(n-1) setting shifts with s_i in
    0..k-1 for i < n and s_n = -(s_1 + ... + s_{n-1}) mod 2k, which act
    regularly on the valid inputs: every valid input then clicks with the
    witness's mean click mass."""
    n = witness.n
    weights = [(lhv.tables, w / k ** (n - 1)) for lhv, w in witness.components]
    components = []
    for head in itertools.product(range(k), repeat=n - 1):
        shifts = (*head, -sum(head))
        for tables, w in weights:
            shifted = tuple(map(rotate, tables, shifts, [k] * n))
            components.append((DeterministicLhv(tables=shifted), w))
    return MixedLhv(components=tuple(components))


def recheck_witnesses(
    inst: GhzInstance,
    eps_budget: Fraction,
    eta: SearchReport,
    det: SearchReport,
    budget: int = DEFAULT_BUDGET,
) -> tuple[str, bool]:
    """Re-check both witnesses off the class bookkeeping: the route, and the
    verdict. ``"model_metrics"`` when the shift average's 2*k**(n-1)
    components fit ``errors.table_fits``: under it every valid input clicks
    with probability eta* at error at most eps, and the click-only witness
    clicks everywhere with its error. Else ``"strategy_counts"``: the
    witness strategies' own counts give both figures."""
    total = inst.valid_input_count()
    if table_fits(2 * total, budget):
        problem = ghz_problem(inst, budget)
        expanded = shift_average(eta.witness, inst.k)
        # the rows behind mixed_lhv_metrics: click mass per input over den
        rows, den = _click_rows(expanded, problem)
        met = _score(rows, den, problem)
        single = mixed_lhv_metrics(MixedLhv(components=((det.witness, ONE),)), problem)
        ok = (
            {sum(rows.get(x, {}).values()) for x in problem.support} == {eta.optimum * den}
            and met.eps <= eps_budget
            and single.eta_n == 1
            and single.eps == det.optimum
        )
        return "model_metrics", ok
    clicks = wrongs = ZERO
    for lhv, w in eta.witness.components:
        c, e = strategy_counts(lhv)
        clicks += w * c
        wrongs += w * e
    ok = clicks == eta.optimum * total and wrongs <= eps_budget * clicks
    return "strategy_counts", ok and strategy_counts(det.witness) == (total, det.optimum * total)


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
    (l+1)**(n*k) silent-allowed strategies fit the table rule
    (``errors.table_fits``), from :func:`eta_star` off one point set for the
    grid. Prefix costs rise strictly with the prefix, so at each eps the best
    prefix is the first one within eps, when its cost is at most c. Bounds
    come from rectangle scans, capped by ``budget``, at the given advantage
    thresholds; each achievable entry must stay below the bound entry
    (checked by callers and the test suite). A negative bit count or error
    budget is refused before the scan.
    """
    if any(c < 0 for c in c_grid):
        raise InvalidInput(f"bit count c must be >= 0, got {min(c_grid)}")
    if any(eps < 0 for eps in eps_grid):
        raise Infeasible("a negative error budget admits no model")
    scans = scan_rectangles(inst, delta_grid, budget=budget)  # may refuse: do it first
    prefix_points = [broadcast_prefix_stats(inst, j) for j in range(inst.n + 1)]
    cheapest = {eps: next((p for p in prefix_points if p.eps <= eps), None) for eps in eps_grid}
    lp_optimum: dict[Fraction, Fraction] = {}
    if table_fits((OUTPUTS + 1) ** (inst.n * inst.k), budget):  # the silent-allowed strategies
        points = class_points(inst, budget)
        lp_optimum = {eps: eta_star(points, eps).optimum for eps in set(eps_grid)}

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
