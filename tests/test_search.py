"""Optimal classical figures: eta*(eps) and the click-only minimum from
rotation-class points, checked against the strategy-walk LP oracle
(``walk_oracle``) and its own generic loops, and the trade-off table."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import lattice_scan, random_weights
from nonlocal_lab.errors import (
    TABLE_LIMIT,
    BudgetExceeded,
    CrossCheckMismatch,
    Infeasible,
    InvalidInput,
)
from nonlocal_lab.ghz import (
    GhzInstance,
    broadcast_prefix_stats,
    broadcast_prefix_strategy,
    ghz_problem,
)
from nonlocal_lab.model import (
    CorrelationProblem,
    DeterministicLhv,
    MixedLhv,
    mixed_lhv_metrics,
    uniform_problem,
)
from nonlocal_lab.protocol import MixedProtocol, cost, to_detector_model
from nonlocal_lab import search
from nonlocal_lab.rectangles import ScanResult
from nonlocal_lab.search import (
    class_points,
    click_only_minimum,
    eta_star,
    model_respects_rectangle_bound,
    tradeoff_table,
)
import walk_oracle
from test_simplex import _fraction_simplex_reference
from walk_oracle import best_deterministic_error, detector_columns, eta_star_lp

F = Fraction


def generic_best_deterministic_error(problem):
    """Reference route: the click-only strategies in lexicographic order,
    with ``is_forbidden`` on every (strategy, input) pair, stopping at the
    first zero. Returns ``(optimum, witness, enumerated)``."""
    n, k, l = problem.n, problem.k, problem.l
    tables = list(itertools.product(range(l), repeat=k))
    best = witness = None
    count = 0
    for combo in itertools.product(tables, repeat=n):
        lhv = DeterministicLhv(tables=combo)
        count += 1
        err = F(0)
        for x in problem.support:
            if problem.is_forbidden(x, lhv.outputs(x)):
                err += problem.mu_weight(x)
        if best is None or err < best:
            best, witness = err, lhv
            if best == 0:
                break
    return best, witness, count


def generic_detector_columns(problem):
    """Reference route: every silent-allowed strategy in lexicographic order
    (silent last), its click pattern over the support and its forbidden mass
    from ``is_forbidden`` per clicking input; per pattern the lowest mass,
    first on ties, in enumeration order."""
    n, k, l = problem.n, problem.k, problem.l
    tables = list(itertools.product(list(range(l)) + [None], repeat=k))
    kept = {}
    for rank, combo in enumerate(itertools.product(tables, repeat=n)):
        pattern = 0
        err = F(0)
        for xi, x in enumerate(problem.support):
            a = tuple(t[v] for t, v in zip(combo, x))
            if None not in a:
                pattern |= 1 << xi
                if problem.is_forbidden(x, a):
                    err += problem.mu_weight(x)
        if pattern not in kept or err < kept[pattern][0]:
            kept[pattern] = (err, rank, combo)
    columns = sorted(kept.items(), key=lambda item: item[1][1])
    return walk_oracle.DetectorColumns(
        problem=problem,
        strategies=tuple(DeterministicLhv(tables=combo) for _, (_, _, combo) in columns),
        patterns=tuple(pattern for pattern, _ in columns),
        err_coef=tuple(err for _, (err, _, _) in columns),
        enumerated=len(tables) ** n,
    )


KERNEL_PROBLEMS = [
    *(pytest.param(("ghz", n, k), id=f"ghz-{n}-{k}") for n, k in
      [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)]),
    pytest.param(("uniform", 2, 2), id="uniform-2-2"),
    pytest.param(("uniform", 3, 2), id="uniform-3-2"),
]


def _kernel_problem(spec):
    kind, n, k = spec
    return ghz_problem(GhzInstance(n=n, k=k)) if kind == "ghz" else uniform_problem(n, k)


@pytest.mark.parametrize("spec", KERNEL_PROBLEMS)
def test_detector_columns_match_the_generic_loop(spec):
    problem = _kernel_problem(spec)
    assert detector_columns(problem) == generic_detector_columns(problem)


@pytest.mark.parametrize("spec", KERNEL_PROBLEMS)
def test_best_deterministic_error_matches_the_generic_loop(spec):
    problem = _kernel_problem(spec)
    report = best_deterministic_error(problem)
    assert (report.optimum, report.witness, report.enumerated) == (
        generic_best_deterministic_error(problem)
    )


def test_kernel_handles_non_uniform_weights_and_unconstrained_inputs():
    rng = random.Random(11)
    for n, free_inputs in ((3, 0), (3, 0), (4, 0), (4, 1), (4, 1)):
        base = ghz_problem(GhzInstance(n=n, k=2))
        free = {a: F(1, 2**n) for a in itertools.product(range(2), repeat=n)}
        unconstrained = rng.sample(base.support, free_inputs)
        raw = [rng.randint(1, 4) for _ in base.support]
        problem = CorrelationProblem(
            n=n, k=2, l=2,
            mu={x: F(r, sum(raw)) for x, r in zip(base.support, raw)},
            target={x: free if x in unconstrained else base.target[x] for x in base.support},
        )
        columns = detector_columns(problem)
        assert columns == generic_detector_columns(problem)
        assert any(columns.err_coef)  # the weights decide some column
        report = best_deterministic_error(problem)
        assert (report.optimum, report.witness, report.enumerated) == (
            generic_best_deterministic_error(problem)
        )


def test_click_only_figure_with_a_party_setting_outside_the_support():
    # with a (party, setting) that no supported input uses, the full-support
    # column's first minimum could carry a silent entry there; it must
    # still be the generic loop's click-only witness and count
    rng = random.Random(13)
    zero = 0
    for trial in range(16):
        n, k = rng.choice(((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)))
        base = ghz_problem(GhzInstance(n=n, k=k))
        party, setting = rng.randrange(n), rng.randrange(k)
        support = [x for x in base.support if x[party] != setting]
        raw = [rng.randint(1, 4) for _ in support]
        problem = CorrelationProblem(
            n=n, k=k, l=2,
            mu={x: F(r, sum(raw)) for x, r in zip(support, raw)},
            target={x: base.target[x] for x in support},
        )
        columns = detector_columns(problem)
        assert columns == generic_detector_columns(problem)
        report = best_deterministic_error(problem)
        assert (report.optimum, report.witness, report.enumerated) == (
            generic_best_deterministic_error(problem)
        ), (n, k, party, setting)
        zero += report.optimum == 0
    assert 0 < zero < 16  # both the early-stop count and the full count


@pytest.mark.parametrize(
    "row",
    [
        {(0, 0): F(1)},  # forbids both odd outcomes and the even (1, 1)
        {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 3)},  # forbids only (1, 1)
    ],
)
def test_forbidden_sets_outside_the_parity_classes_are_refused(row):
    inputs = list(itertools.product(range(2), repeat=2))
    even = {a: F(1, 2) for a in itertools.product(range(2), repeat=2) if sum(a) % 2 == 0}
    problem = CorrelationProblem(
        n=2, k=2, l=2,
        mu={x: F(1, 4) for x in inputs},
        target={x: row if x == (0, 1) else even for x in inputs},
    )
    message = r"^the forbidden outcomes at input \(0, 1\) are not one parity class$"
    with pytest.raises(InvalidInput, match=message):
        detector_columns(problem)
    with pytest.raises(InvalidInput, match=message):
        best_deterministic_error(problem)


@pytest.mark.parametrize(
    "n,k,columns_count,eta,click_only,enumerated",
    [(6, 2, 506, F(5, 56), F(3, 8), 4096), (3, 4, 1096, F(7, 12), F(1, 4), 4096)],
)
def test_reach_pinned_at_a_tenth(n, k, columns_count, eta, click_only, enumerated):
    problem = ghz_problem(GhzInstance(n=n, k=k))
    eps = F(1, 10)
    det = best_deterministic_error(problem)
    assert (det.optimum, det.enumerated) == (click_only, enumerated)
    single = MixedLhv(components=((det.witness, F(1)),))
    assert mixed_lhv_metrics(single, problem).eps == click_only
    columns = detector_columns(problem)
    assert len(columns.patterns) == columns_count
    report = walk_oracle.eta_star_from_columns(columns, eps)
    assert report.optimum == eta
    met = mixed_lhv_metrics(report.witness, problem)
    assert met.eta_n == eta and met.eps <= eps


def test_mermin_figure_confirmed_by_oracle():
    problem = ghz_problem(GhzInstance(n=3, k=2))
    oracle, _, _ = generic_best_deterministic_error(problem)
    assert oracle == F(1, 4)
    report = click_only_minimum(class_points(GhzInstance(n=3, k=2)))
    assert report.optimum == F(1, 4)
    assert report.enumerated == 4  # multisets of 3 of the 2 table types
    # the witness reaches the reported value when replayed
    replay = F(0)
    for x in problem.support:
        if problem.target_prob(x, report.witness.outputs(x)) == 0:
            replay += problem.mu_weight(x)
    assert replay == report.optimum


def test_two_party_instance_is_exactly_solvable():
    problem = ghz_problem(GhzInstance(n=2, k=2))
    assert generic_best_deterministic_error(problem)[0] == 0
    report = best_deterministic_error(problem)
    assert report.optimum == 0
    # the second click-only strategy already has error 0
    assert report.enumerated == 2 and report.witness.tables == ((0, 0), (0, 1))


def test_full_support_target_has_zero_error():
    report = best_deterministic_error(uniform_problem(2, 2))
    assert report.optimum == 0


def test_budget_guard():
    # 4 product classes of 3 factors each; the oracle walks 3**6 strategies
    inst = GhzInstance(n=3, k=2)
    assert class_points(inst, budget=12).enumerated == 4
    with pytest.raises(BudgetExceeded):
        class_points(inst, budget=11)
    problem = ghz_problem(inst)
    with pytest.raises(BudgetExceeded):
        best_deterministic_error(problem, budget=10)
    with pytest.raises(BudgetExceeded):
        eta_star_lp(problem, F(0), budget=10)


def test_budget_errors_name_the_largest_party_count_that_fits():
    # C(T+n-1, n) product classes of n factors each, T the table types
    with pytest.raises(BudgetExceeded, match=r"^11440660 product-class factors exceed the "
                       r"budget of 10000000; the largest n that fits at k=4 is 13$"):
        class_points(GhzInstance(n=14, k=4))
    # exactly 7 * 6 factors fit at n=6, k=2 and one less refuses
    assert class_points(GhzInstance(n=6, k=2), budget=42).enumerated == 7
    with pytest.raises(BudgetExceeded, match="the largest n that fits at k=2 is 5$"):
        class_points(GhzInstance(n=6, k=2), budget=41)
    # the 5 factors of n = 1 fit, but no instance has one party
    with pytest.raises(BudgetExceeded, match="no n fits at k=3$"):
        class_points(GhzInstance(n=3, k=3), budget=29)


def test_library_figures_share_the_class_budget():
    # 3**16 silent-allowed strategies at n=8, k=2 exceed the default budget,
    # which refuses the walk; both figures read the 9 product classes
    inst = GhzInstance(n=8, k=2)
    with pytest.raises(BudgetExceeded, match="the largest n that fits at k=2 is 7$"):
        best_deterministic_error(ghz_problem(inst))
    points = class_points(inst)
    assert points.enumerated == 9
    assert click_only_minimum(points).optimum == F(7, 16)
    assert eta_star(points, F(1, 10)).optimum == F(5, 224)
    with pytest.raises(BudgetExceeded, match="the largest n that fits at k=2 is 7$"):
        class_points(inst, budget=7 * 8)


def test_random_mixtures_never_beat_the_vertex_minimum():
    rng = random.Random(37)
    problem = ghz_problem(GhzInstance(n=3, k=2))
    vertex = click_only_minimum(class_points(GhzInstance(n=3, k=2))).optimum
    tables = list(itertools.product(range(2), repeat=2))
    all_strategies = [
        tuple(combo) for combo in itertools.product(tables, repeat=3)
    ]
    for _ in range(100):
        count = rng.randint(1, 5)
        picks = [
            DeterministicLhv(tables=rng.choice(all_strategies)) for _ in range(count)
        ]
        mixture = MixedLhv(components=tuple(zip(picks, random_weights(rng, count))))
        met = mixed_lhv_metrics(mixture, problem)
        assert met.eps >= vertex


def live_eta_star(n, k, eps):
    return eta_star(class_points(GhzInstance(n=n, k=k)), eps)


def test_lp_trivial_budget_allows_always_click():
    assert live_eta_star(2, 2, F(1)).optimum == 1


def test_lp_two_party_perfect_strategy():
    assert live_eta_star(2, 2, F(0)).optimum == 1


def test_lp_three_party_zero_error_value():
    problem = ghz_problem(GhzInstance(n=3, k=2))
    report = live_eta_star(3, 2, F(0))
    # a one-bit zero-error protocol converts into eta^n = 1/2, so the LP
    # optimum can be no smaller
    tree = broadcast_prefix_strategy(GhzInstance(n=3, k=2), 1)
    assert cost(tree) == 1
    detector = to_detector_model(MixedProtocol(components=((tree, F(1)),)))
    met = mixed_lhv_metrics(detector, problem)
    assert met.eps == 0 and met.eta_n == F(1, 2)
    assert report.optimum >= F(1, 2)
    assert report.optimum == F(1, 2)  # frozen from the exact LP run
    # witness re-check through the model metrics, averaged over the shifts
    wit = mixed_lhv_metrics(search.shift_average(report.witness, 2), problem)
    assert wit.eta_n == report.optimum and wit.eps == 0


def test_lp_monotone_in_error_budget():
    budgets = [F(0), F(1, 10), F(1, 4), F(1, 2), F(1)]
    values = [live_eta_star(3, 2, b).optimum for b in budgets]
    for a, b in zip(values, values[1:]):
        assert a <= b
    assert values[-1] == 1


def test_lp_negative_budget_infeasible():
    with pytest.raises(Infeasible):
        live_eta_star(2, 2, F(-1, 2))


def test_lp_witness_click_probability_is_input_independent():
    from nonlocal_lab.model import all_click, evaluate_mixed_lhv

    for n, k in ((3, 2), (4, 2), (3, 4)):
        problem = ghz_problem(GhzInstance(n=n, k=k))
        report = live_eta_star(n, k, F(1, 10))
        assert len(report.witness.components) <= 2
        expanded = search.shift_average(report.witness, k)
        assert len(expanded.components) == len(report.witness.components) * k ** (n - 1)
        d = evaluate_mixed_lhv(expanded, problem)
        for x in problem.support:
            clicks = sum(p for a, p in d.probs[x].items() if all_click(a))
            assert clicks == report.optimum


def full_column_lp_oracle(problem):
    """Independent route: the eta* LP with one column per silent-allowed
    strategy, (l+1)**(n*k) columns, solved by the rational reference tableau.
    Returns a solver ``eps -> q``."""
    n, k, l = problem.n, problem.k, problem.l
    support = problem.support
    entries = list(range(l)) + [None]
    tables = list(itertools.product(entries, repeat=k))
    clicks, errs = [], []
    for combo in itertools.product(tables, repeat=n):
        outs = [tuple(combo[i][x[i]] for i in range(n)) for x in support]
        col = [all(v is not None for v in a) for a in outs]
        clicks.append(col)
        errs.append(
            sum(
                (
                    problem.mu_weight(x)
                    for x, a, c in zip(support, outs, col)
                    if c and problem.target_prob(x, a) == 0
                ),
                F(0),
            )
        )
    m = len(clicks)

    def solve(eps):
        eq = [([F(1)] * m + [F(0)], F(1))]
        for xi in range(len(support)):
            eq.append(([F(int(col[xi])) for col in clicks] + [F(-1)], F(0)))
        ub = [(errs + [-eps], F(0))]
        return _fraction_simplex_reference([F(0)] * m + [F(1)], eq, ub)[1][m]

    return solve


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_lp_over_click_patterns_matches_full_column_lp(n, k):
    problem = ghz_problem(GhzInstance(n=n, k=k))
    oracle = full_column_lp_oracle(problem)
    columns = detector_columns(problem)
    assert columns.enumerated == 3 ** (n * k)
    assert len(set(columns.patterns)) == len(columns.patterns)
    for eps in (F(0), F(1, 10), F(1, 4), F(1)):
        report = eta_star_lp(problem, eps)
        assert report.optimum == oracle(eps), eps
        assert report.enumerated == 3 ** (n * k)


def test_lp_four_parties_pinned(monkeypatch):
    problem = ghz_problem(GhzInstance(n=4, k=2))
    built = []

    class CountingLhv(walk_oracle.DeterministicLhv):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    # the enumeration is streamed: lookup tables only for the kept columns
    monkeypatch.setattr(walk_oracle, "DeterministicLhv", CountingLhv)
    columns = detector_columns(problem)
    assert columns.enumerated == 6561
    assert len(columns.strategies) == len(built) == 42
    for eps, expected in ((F(0), F(1, 4)), (F(1, 10), F(5, 14))):
        report = walk_oracle.eta_star_from_columns(columns, eps)
        assert report.optimum == expected
        met = mixed_lhv_metrics(report.witness, problem)
        assert met.eta_n == expected and met.eps <= eps


@pytest.mark.parametrize(
    "perturb,message",
    [
        ("scale", "dual objective differs"),
        ("negative", "negative on a <=-row"),
        ("shift", "infeasible on LP column"),
        ("short", "5 entries for 6 rows"),
    ],
)
def test_a_perturbed_dual_is_refused(monkeypatch, perturb, message):
    columns = detector_columns(ghz_problem(GhzInstance(n=3, k=2)))
    solve = walk_oracle.solve_lp_max

    def perturbed(objective, eq_rows, ub_rows):
        result = solve(objective, eq_rows, ub_rows)
        y = list(result.dual)
        if perturb == "scale":  # b . y no longer equals the optimum
            y[0] *= F(3, 2)
        elif perturb == "negative":  # the error row's multiplier turns negative
            y[-1] = -F(1, 7)
        elif perturb == "shift":  # same b . y (rhs 0), but a column turns infeasible
            y[1] -= F(1, 1000)
        else:
            y = y[:-1]
        return dataclasses.replace(result, dual=tuple(y))

    walk_oracle.eta_star_from_columns(columns, F(1, 10))
    monkeypatch.setattr(walk_oracle, "solve_lp_max", perturbed)
    with pytest.raises(CrossCheckMismatch, match=message):
        walk_oracle.eta_star_from_columns(columns, F(1, 10))


def test_tradeoff_table_consistency_small():
    inst = GhzInstance(n=3, k=2)
    table = tradeoff_table(inst, c_grid=[0, 1, 2, 3], eps_grid=[F(0), F(1, 4)])
    for row in table.rows:
        if row.achievable_eta_n is not None and row.bound_eta_n is not None:
            assert row.achievable_eta_n <= row.bound_eta_n
    # full-broadcast point achieves 2^-c at eps=0
    by_key = {(r.c, r.eps): r for r in table.rows}
    assert by_key[(3, F(0))].achievable_eta_n >= F(1, 8)
    assert by_key[(0, F(0))].achievable_eta_n == F(1, 2)  # the LP value


def test_tradeoff_table_desk_scale_gap():
    inst = GhzInstance(n=8, k=2)
    table = tradeoff_table(
        inst, c_grid=[0, 2, 4, 8], eps_grid=[F(0), F(1, 10)]
    )
    for row in table.rows:
        if row.achievable_eta_n is not None and row.bound_eta_n is not None:
            assert row.achievable_eta_n <= row.bound_eta_n


def test_tradeoff_bound_is_the_least_over_the_scans(monkeypatch):
    # the n=10, k=4 caps at delta 1/2, 15/16 and 1 (a 9 s scan, so given
    # here): only the 15/16 cap bounds eta**n below 1, and delta 1 bounds
    # nothing
    inst = GhzInstance(n=10, k=4)
    deltas = (F(1, 2), F(15, 16), F(1))
    caps = (F(1), F(9, 32768), F(5, 65536))
    scans = tuple(ScanResult(d, cap, 0, None) for d, cap in zip(deltas, caps))
    monkeypatch.setattr(search, "scan_rectangles", lambda *args, **kwargs: scans)
    table = tradeoff_table(inst, c_grid=[0, 1, 2], eps_grid=[F(0), F(1, 32)], delta_grid=deltas)
    assert [r.bound_eta_n for r in table.rows] == [F(9, 32), F(9, 16), F(9, 16), 1, 1, 1]
    assert model_respects_rectangle_bound(inst, scans, 0, F(9, 32), F(0))
    assert not model_respects_rectangle_bound(inst, scans, 0, F(9, 32) + F(1, 10**6), F(0))


def nested_loop_achievable(inst, c_grid, eps_grid):
    """Oracle: the achievable entries of the trade-off table from a scan of
    every broadcast prefix at every (c, eps) grid point, then the LP."""
    points = [broadcast_prefix_stats(inst, j) for j in range(inst.n + 1)]
    lp_ok = 3 ** (inst.n * inst.k) <= TABLE_LIMIT
    columns = detector_columns(ghz_problem(inst)) if lp_ok else None
    out = []
    for c in c_grid:
        for eps in eps_grid:
            best, source = None, "none"
            for p in points:
                if p.cost <= c and p.eps <= eps:
                    if best is None or p.eta_n_converted > best:
                        best, source = p.eta_n_converted, f"broadcast_prefix[{p.prefix}]"
            if columns is not None:
                q = walk_oracle.eta_star_from_columns(columns, eps).optimum
                if best is None or q > best:
                    best, source = q, "eta_star_lp"
            out.append((c, eps, best, source))
    return out


def test_tradeoff_rows_match_the_nested_loop(monkeypatch):
    # the rows' bounds come from the scan, which this comparison leaves out
    monkeypatch.setattr(search, "scan_rectangles", lambda *args, **kwargs: ())
    eps_grid = [F(0), F(1, 100), F(1, 32), F(1, 10), F(1, 8), F(1, 5), F(1, 4), F(1, 3),
                F(1, 2), F(1)]
    for k in (2, 3, 4):
        for n in range(2, 13):
            inst = GhzInstance(n=n, k=k)
            c_grid = list(range(n * (k - 1).bit_length() + 2))
            table = tradeoff_table(inst, c_grid, eps_grid)
            rows = [(r.c, r.eps, r.achievable_eta_n, r.achievable_source) for r in table.rows]
            assert rows == nested_loop_achievable(inst, c_grid, eps_grid), (n, k)


def test_tradeoff_table_rejects_negative_bit_counts():
    with pytest.raises(InvalidInput):
        tradeoff_table(GhzInstance(n=3, k=2), c_grid=[0, -3], eps_grid=[F(0)])


def test_measured_models_respect_every_scanned_cap():
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    scans = lattice_scan(inst, (F(1, 2), F(3, 4), F(7, 8)))
    for prefix in range(4):
        tree = broadcast_prefix_strategy(inst, prefix)
        mp = MixedProtocol(components=((tree, F(1)),))
        c = cost(tree)
        met = mixed_lhv_metrics(to_detector_model(mp), problem)
        # protocol itself: all clicks, c bits
        assert model_respects_rectangle_bound(inst, scans, c, F(1), met.eps)
        # converted detector model: no bits, 2^-c clicks
        assert model_respects_rectangle_bound(inst, scans, 0, met.eta_n, met.eps)


# ---------------------------------------------------------------- rotation classes


def poly(table, k):
    """Reference: the table's polynomial, sum of z^(x + k*t(x)) over its
    clicks, as a count vector over Z_2k."""
    v = [0] * (2 * k)
    for x, a in enumerate(table):
        if a is not None:
            v[(x + k * a) % (2 * k)] += 1
    return tuple(v)


def test_rotating_a_table_multiplies_its_polynomial_by_z_to_the_shift():
    for k in (2, 3, 4):
        m = 2 * k
        for t in itertools.product((0, 1, None), repeat=k):
            v = poly(t, k)
            for s in range(-m, m):
                assert poly(search.rotate(t, s, k), k) == tuple(v[(j - s) % m] for j in range(m))


def test_every_table_is_a_rotation_of_exactly_one_type():
    assert [search.type_count(k) for k in range(2, 9)] == [2, 5, 10, 25, 62, 157, 410]
    for k in range(2, 7):
        m = 2 * k
        types = search.table_types(k)
        assert len(types) == search.type_count(k)
        orbits = [{tuple(poly(t, k)[(j - s) % m] for j in range(m)) for s in range(m)}
                  for t in types]
        for t in itertools.product((0, 1, None), repeat=k):
            if any(v is not None for v in t):
                assert sum(poly(t, k) in orbit for orbit in orbits) == 1


def test_strategy_counts_are_the_problem_counts():
    rng = random.Random(5)
    for n, k in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 4)):
        problem = ghz_problem(GhzInstance(n=n, k=k))
        for _ in range(20):
            lhv = DeterministicLhv(
                tables=tuple(tuple(rng.choice((0, 1, None)) for _ in range(k)) for _ in range(n))
            )
            clicking = [x for x in problem.support if lhv.clicks_on(x)]
            wrong = sum(problem.is_forbidden(x, lhv.outputs(x)) for x in clicking)
            assert search.strategy_counts(lhv) == (len(clicking), wrong)


EPS_SWEEP = (F(0), F(1, 10), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1))


@pytest.mark.parametrize(
    "n,k,eps_grid",
    [
        *(pytest.param(n, k, EPS_SWEEP, id=f"{n}-{k}")
          for n, k in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4))),
        # the oracle's LP takes up to 1 s per budget here; the values at 1/10
        # are pinned by test_reach_pinned_at_a_tenth
        pytest.param(6, 2, (F(0),), id="6-2"),
        pytest.param(3, 4, (F(1, 4),), id="3-4"),
    ],
)
def test_points_match_the_walk_oracle(n, k, eps_grid):
    inst = GhzInstance(n=n, k=k)
    points = class_points(inst)
    det = click_only_minimum(points)
    columns = detector_columns(ghz_problem(inst))
    assert det.optimum == walk_oracle.best_deterministic_error_from_columns(columns).optimum
    for eps in eps_grid:
        report = eta_star(points, eps)
        assert report.optimum == walk_oracle.eta_star_from_columns(columns, eps).optimum, eps
        assert len(report.witness.components) <= 2
        assert search.recheck_witnesses(inst, eps, report, det) == ("model_metrics", True)


@pytest.mark.parametrize(
    "n,k,click_only,recorded",
    [
        # the walk's LP at (7, 2) took 39 s and at (4, 3) 7 s
        (6, 2, F(3, 8), {F(1, 10): F(5, 56)}),
        (3, 4, F(1, 4), {F(0): F(7, 16), F(1, 10): F(7, 12)}),
        (7, 2, F(7, 16), {F(0): F(1, 32), F(1, 10): F(5, 112), F(1, 4): F(1, 8)}),
        (4, 3, F(0), {F(0): F(1), F(1, 10): F(1)}),
        (4, 4, F(5, 16), {F(0): F(5, 32), F(1, 10): F(1, 3), F(1, 4): F(13, 20)}),
        (6, 4, F(27, 64), {F(0): F(5, 256), F(1, 10): F(365, 7168)}),
    ],
)
def test_recorded_values_past_the_walk(n, k, click_only, recorded):
    points = class_points(GhzInstance(n=n, k=k))
    assert click_only_minimum(points).optimum == click_only
    assert {eps: eta_star(points, eps).optimum for eps in recorded} == recorded


def test_k2_closed_forms():
    for n in (*range(3, 65), 256):
        points = class_points(GhzInstance(n=n, k=2))
        assert eta_star(points, F(0)).optimum == F(4, 2**n), n
        tenth = F(5, 8) if n == 3 else F(5, 7 * 2 ** (n - 3))
        assert eta_star(points, F(1, 10)).optimum == tenth, n
        assert eta_star(points, F(1, 4)).optimum == min(F(1), F(16, 2**n)), n
        # Mermin's classical bound on the error
        assert click_only_minimum(points).optimum == F(1, 2) - F(1, 2 ** ((n + 1) // 2)), n


@pytest.mark.parametrize("n,k", [(3, 3), (5, 3), (4, 5)])
def test_odd_k_is_classical(n, k):
    # a_i = x_i mod 2 has output parity sum(x) mod 2, which is the promise
    # bit when k is odd
    total = k ** (n - 1)
    parity = DeterministicLhv(tables=(tuple(x % 2 for x in range(k)),) * n)
    assert search.strategy_counts(parity) == (total, 0)
    points = class_points(GhzInstance(n=n, k=k))
    det = click_only_minimum(points)
    assert det.optimum == 0 and search.strategy_counts(det.witness) == (total, 0)
    for eps in (F(0), F(1, 10), F(1, 2)):
        report = eta_star(points, eps)
        assert report.optimum == 1
        assert all(search.strategy_counts(lhv) == (total, 0) for lhv, _ in report.witness.components)


def test_recheck_by_strategy_counts_past_the_table_limit():
    # 8 * 7 product-class factors fit a budget of 100, the 2 * 64 expanded
    # components do not
    inst = GhzInstance(n=7, k=2)
    points = class_points(inst, budget=100)
    det = click_only_minimum(points)
    report = eta_star(points, F(1, 10))
    assert search.recheck_witnesses(inst, F(1, 10), report, det, 100) == ("strategy_counts", True)
    assert search.recheck_witnesses(inst, F(1, 10), report, det) == ("model_metrics", True)
    # a witness that does not reach its optimum fails either route
    wrong = dataclasses.replace(report, optimum=report.optimum + F(1, 1000))
    for budget in (100, 10**7):
        assert not search.recheck_witnesses(inst, F(1, 10), wrong, det, budget)[1]
    # nor does a click-only witness above its figure
    low = dataclasses.replace(det, optimum=det.optimum - F(1, 64))
    for budget in (100, 10**7):
        assert not search.recheck_witnesses(inst, F(1, 10), report, low, budget)[1]


@pytest.mark.parametrize(
    "perturb,message",
    [("scale", "dual objective differs"), ("short", "1 entries for 2 rows")],
)
def test_a_perturbed_dual_of_the_two_row_lp_is_refused(monkeypatch, perturb, message):
    points = class_points(GhzInstance(n=3, k=2))
    solve = search.solve_lp_max

    def perturbed(objective, eq_rows, ub_rows):
        result = solve(objective, eq_rows, ub_rows)
        y = list(result.dual)
        y = [y[0] * F(3, 2), *y[1:]] if perturb == "scale" else y[:-1]
        return dataclasses.replace(result, dual=tuple(y))

    monkeypatch.setattr(search, "solve_lp_max", perturbed)
    with pytest.raises(CrossCheckMismatch, match=message):
        eta_star(points, F(1, 10))
