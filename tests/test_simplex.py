"""The integer simplex against the textbook rational tableau it replaced:
equal optima, solutions and pivot counts on the eta* programs and on seeded
random programs, equal errors on infeasible and unbounded ones, and an exact
dual certificate on every optimum."""

import random
from fractions import Fraction
from typing import Optional

import pytest

from nonlocal_lab.errors import Infeasible
from nonlocal_lab.ghz import GhzInstance, ghz_problem
from nonlocal_lab.simplex import solve_lp_max
from walk_oracle import detector_columns, eta_star_program

F = Fraction
ZERO = F(0)
ONE = F(1)


def _fraction_simplex_reference(objective, eq_rows, ub_rows, events=None):
    """The dense two-phase tableau of ``Fraction`` entries with Bland's rule,
    as the package solved LPs before the integer tableau. Returns
    ``(objective, solution, iterations)``; ``events`` (a set, when given)
    collects ``"drive_out"`` and ``"negative_drive_out"`` for pivots that
    remove a basic artificial after phase one, and ``"artificial_stays"``
    when one cannot be removed."""

    def pivot(tableau, basis, row, col):
        inv = 1 / tableau[row][col]
        tableau[row] = [v * inv for v in tableau[row]]
        refrow = tableau[row]
        for i, r in enumerate(tableau):
            if i != row and r[col] != 0:
                factor = r[col]
                tableau[i] = [a - factor * b for a, b in zip(r, refrow)]
        basis[row] = col

    def run(tableau, basis, ncols, allowed=None):
        rows = len(tableau) - 1
        iterations = 0
        while True:
            obj = tableau[-1]
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
            pivot(tableau, basis, row, col)
            iterations += 1

    events = set() if events is None else events
    nvars = len(objective)
    for _, b in list(eq_rows) + list(ub_rows):
        if b < 0:
            raise Infeasible("right-hand sides must be nonnegative")
    nslack = len(ub_rows)
    nart = len(eq_rows)
    ncols = nvars + nslack + nart
    tableau, basis = [], []
    for idx, (coeffs, b) in enumerate(ub_rows):
        row = [F(c) for c in coeffs] + [ZERO] * (nslack + nart) + [F(b)]
        row[nvars + idx] = ONE
        tableau.append(row)
        basis.append(nvars + idx)
    for idx, (coeffs, b) in enumerate(eq_rows):
        row = [F(c) for c in coeffs] + [ZERO] * (nslack + nart) + [F(b)]
        row[nvars + nslack + idx] = ONE
        tableau.append(row)
        basis.append(nvars + nslack + idx)

    iterations = 0
    if nart:
        phase1 = [ZERO] * (ncols + 1)
        for j in range(nvars + nslack, ncols):
            phase1[j] = -ONE
        tableau.append(phase1)
        for i, b in enumerate(basis):
            if b >= nvars + nslack:
                tableau[-1] = [a + c for a, c in zip(tableau[-1], tableau[i])]
        iterations += run(tableau, basis, ncols)
        if tableau[-1][-1] != 0:
            raise Infeasible("equality constraints admit no feasible point")
        tableau.pop()
        for i, b in enumerate(basis):
            if b >= nvars + nslack:
                for j in range(nvars + nslack):
                    if tableau[i][j] != 0:
                        events.add("drive_out")
                        if tableau[i][j] < 0:
                            events.add("negative_drive_out")
                        pivot(tableau, basis, i, j)
                        break
                else:
                    events.add("artificial_stays")

    real_cols = set(range(nvars + nslack))
    tableau.append([F(c) for c in objective] + [ZERO] * (nslack + nart) + [ZERO])
    for i, b in enumerate(basis):
        if tableau[-1][b] != 0:
            factor = tableau[-1][b]
            tableau[-1] = [a - factor * c for a, c in zip(tableau[-1], tableau[i])]
    iterations += run(tableau, basis, ncols, allowed=real_cols)

    solution = [ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[i][-1]
    return sum(c * v for c, v in zip(objective, solution)), tuple(solution), iterations


def assert_dual_certificate(objective, eq_rows, ub_rows, result):
    """Weak-duality certificate, written out row by row."""
    rows = list(eq_rows) + list(ub_rows)
    y = result.dual
    assert len(y) == len(rows)
    assert all(v >= 0 for v in y[len(eq_rows):])
    assert sum(v * b for v, (_, b) in zip(y, rows)) == result.objective
    for j, c in enumerate(objective):
        assert sum(v * coeffs[j] for v, (coeffs, _) in zip(y, rows)) >= c


def assert_matches_reference(objective, eq_rows, ub_rows, events=None):
    result = solve_lp_max(objective, eq_rows, ub_rows)
    expected = _fraction_simplex_reference(objective, eq_rows, ub_rows, events)
    assert (result.objective, result.solution, result.iterations) == expected
    assert_dual_certificate(objective, eq_rows, ub_rows, result)
    return result


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_eta_star_programs_match_the_rational_tableau(n, k):
    columns = detector_columns(ghz_problem(GhzInstance(n=n, k=k)))
    for eps in (F(0), F(1, 10), F(1, 4), F(1)):
        assert_matches_reference(*eta_star_program(columns, eps))


def _random_value(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5, 7)))


def _random_program(rng):
    """Mixed equality and <= rows with rational coefficients. Right-hand
    sides are often 0 (degenerate vertices); some equality rows repeat
    another one scaled by a nonzero rational, possibly negative, so an
    artificial can stay basic after phase one."""
    nvars = rng.randint(1, 6)
    objective = [_random_value(rng) for _ in range(nvars)]

    def row():
        rhs = F(0) if rng.random() < 0.4 else F(rng.randint(1, 6), rng.choice((1, 2, 3)))
        return [_random_value(rng) for _ in range(nvars)], rhs

    eq_rows = [row() for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 2) if eq_rows else 0):
        coeffs, rhs = rng.choice(eq_rows)
        t = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        if rhs:
            t = abs(t)  # keep the right-hand side nonnegative
        eq_rows.insert(rng.randrange(len(eq_rows) + 1), ([t * c for c in coeffs], t * rhs))
    ub_rows = [row() for _ in range(rng.randint(0, 4))]
    return objective, eq_rows, ub_rows


def test_seeded_random_programs_match_the_rational_tableau():
    rng = random.Random(2002)
    events: set = set()
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(1500):
        program = _random_program(rng)
        try:
            expected = _fraction_simplex_reference(*program, events)
        except Infeasible as exc:
            with pytest.raises(Infeasible) as caught:
                solve_lp_max(*program)
            assert str(caught.value) == str(exc)
            key = "unbounded" if "unbounded" in str(exc) else "infeasible"
            outcomes[key] += 1
            continue
        result = solve_lp_max(*program)
        assert (result.objective, result.solution, result.iterations) == expected
        assert_dual_certificate(*program, result)
        outcomes["optimal"] += 1
    # the draw reaches every branch the integer tableau has
    assert min(outcomes.values()) >= 50, outcomes
    assert events == {"drive_out", "negative_drive_out", "artificial_stays"}


def test_negative_drive_out_pivot_keeps_the_divisor_positive():
    # both equality rows hold at x = 0, so phase one ends at once with both
    # artificials basic; the first is driven out on its entry -1/2
    objective = [F(1), F(1, 3)]
    eq_rows = [([F(-1, 2), F(1)], F(0)), ([F(1, 2), F(-1)], F(0))]
    ub_rows = [([F(1), F(0)], F(3, 2))]
    events: set = set()
    result = assert_matches_reference(objective, eq_rows, ub_rows, events)
    assert events == {"drive_out", "negative_drive_out", "artificial_stays"}
    assert result.solution == (F(3, 2), F(3, 4)) and result.objective == F(7, 4)


def test_errors_match_the_rational_tableau():
    cases = [
        ([F(1)], [], [([F(-1)], F(1))]),  # unbounded
        ([F(1), F(0)], [([F(1), F(1)], F(1)), ([F(1), F(1)], F(2))], []),  # infeasible
        ([F(1)], [([F(1)], F(-1))], []),  # negative right-hand side
    ]
    for program in cases:
        with pytest.raises(Infeasible) as expected:
            _fraction_simplex_reference(*program)
        with pytest.raises(Infeasible) as caught:
            solve_lp_max(*program)
        assert str(caught.value) == str(expected.value)
