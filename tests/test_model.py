"""Model types and imperfection metrics, with independent oracles for every
derived figure."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from conftest import random_click_lhv, random_mixed_lhv
from nonlocal_lab.errors import ArityMismatch, DivisionByZeroEfficiency, InvalidInput
from nonlocal_lab.ghz import GhzInstance, ghz_problem
from nonlocal_lab.model import (
    CorrelationProblem,
    DeterministicLhv,
    MixedLhv,
    _check_lhv_tables,
    all_click,
    detection_efficiency,
    error_probability,
    evaluate_mixed_lhv,
    mixed_lhv_metrics,
    total_variation_error,
    uniform_problem,
)

F = Fraction


def const_lhv(n, k, value):
    return DeterministicLhv(tables=tuple(tuple(value for _ in range(k)) for _ in range(n)))


def test_point_mass_of_deterministic_model():
    problem = uniform_problem(3, 2)
    m = MixedLhv(components=((const_lhv(3, 2, 0), F(1)),))
    d = evaluate_mixed_lhv(m, problem)
    for x in problem.support:
        assert d.probs[x] == {(0, 0, 0): F(1)}


def test_mixture_of_point_masses():
    problem = uniform_problem(2, 2)
    m = MixedLhv(
        components=((const_lhv(2, 2, 0), F(1, 2)), (const_lhv(2, 2, 1), F(1, 2)))
    )
    d = evaluate_mixed_lhv(m, problem)
    for x in problem.support:
        assert d.probs[x] == {(0, 0): F(1, 2), (1, 1): F(1, 2)}


def test_three_component_histogram_matches_enumeration_oracle():
    # derived expectation: walk the components per input and sum the weights
    rng = random.Random(101)
    strategies = [random_click_lhv(rng, 3, 2) for _ in range(3)]
    weights = [F(1, 2), F(1, 4), F(1, 4)]
    problem = uniform_problem(3, 2)
    m = MixedLhv(components=tuple(zip(strategies, weights)))
    d = evaluate_mixed_lhv(m, problem)
    for x in problem.support:
        expected: dict = {}
        for lhv, w in zip(strategies, weights):
            a = tuple(t[v] for t, v in zip(lhv.tables, x))
            expected[a] = expected.get(a, F(0)) + w
        assert d.probs[x] == expected


def test_rows_sum_to_one_exactly():
    rng = random.Random(7)
    problem = uniform_problem(3, 2)
    for _ in range(25):
        m = random_mixed_lhv(rng, 3, 2, detector=True)
        d = evaluate_mixed_lhv(m, problem)
        for x in problem.support:
            assert sum(d.probs[x].values()) == 1


def test_preimage_of_any_outcome_is_a_rectangle():
    # |{x : lhv(x) = a}| must equal the product of per-party preimage sizes
    rng = random.Random(11)
    for _ in range(50):
        n, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
        lhv = random_click_lhv(rng, n, k, l=2)
        for a in itertools.product(range(2), repeat=n):
            direct = sum(
                1
                for x in itertools.product(range(k), repeat=n)
                if lhv.outputs(x) == a
            )
            product = 1
            for i in range(n):
                product *= sum(1 for v in range(k) if lhv.tables[i][v] == a[i])
            assert direct == product


def test_mixture_weights_must_sum_to_one_exactly():
    lhvs = [const_lhv(2, 2, v) for v in (0, 1, 0)]
    tiny = F(1, 2**60)
    for weights in ((F(1, 2), F(1, 2) - tiny), (F(1, 3), F(1, 3), F(1, 3) + tiny), (0.5, 0.25)):
        with pytest.raises(InvalidInput, match="^component weights must sum to 1$"):
            MixedLhv(components=tuple(zip(lhvs, weights)))
    exact = MixedLhv(components=tuple(zip(lhvs, (F(1, 3), F(1, 6), "1/2"))))
    assert [w for _, w in exact.components] == [F(1, 3), F(1, 6), F(1, 2)]
    big = MixedLhv(components=tuple((lhv, F(1, 16384)) for lhv in lhvs[:1] * 16384))
    assert len(big.components) == 16384


def test_mixture_checks_each_distinct_model_and_weight_once_and_counts_them():
    zero, one = const_lhv(2, 2, 0), const_lhv(2, 2, 1)
    quarter = F(1, 4)
    # one weight object shared by three components, and an equal distinct one
    m = MixedLhv(components=((zero, quarter), (one, quarter), (zero, quarter), (one, F(1, 4))))
    assert [w for _, w in m.components] == [F(1, 4)] * 4
    third = F(1, 3)
    with pytest.raises(InvalidInput, match="^component weights must sum to 1$"):
        MixedLhv(components=((zero, third), (one, third)))
    with pytest.raises(InvalidInput, match="^component weights must be positive$"):
        MixedLhv(components=((zero, F(1)), (one, F(0)), (zero, F(0))))
    # a model of another shape after many components sharing one model
    wide = const_lhv(2, 3, 0)
    components = ((zero, F(1, 8)),) * 7 + ((wide, F(1, 8)),)
    with pytest.raises(ArityMismatch, match=r"^all components must share \(n, k\)$"):
        MixedLhv(components=components)
    with pytest.raises(ArityMismatch):
        MixedLhv(components=((zero, F(1, 2)), (const_lhv(3, 2, 0), F(1, 2))))


@pytest.mark.parametrize(
    "tables",
    [
        ((True, 1.0), (0, 0)),
        ((True, 1), (1, 1)),
        ((1, 0), (False, 0)),
        ((1.0, 0),),
        (("1", 0),),
        ((-1, 0),),
    ],
    ids=repr,
)
def test_deterministic_model_refuses_bool_and_non_int_entries(tables):
    with pytest.raises(InvalidInput, match="^outputs must be None or nonnegative ints$"):
        DeterministicLhv(tables=tables)


def test_checked_tables_are_remembered_by_identity_not_value():
    # (True, 1) equals (1, 1) and hashes alike, so a cache keyed on values
    # would take one for the other
    good, lookalike = (1, 1), (True, 1)
    assert good == lookalike and hash(good) == hash(lookalike)
    valid: set[int] = set()
    _check_lhv_tables((good, (0, None)), valid)
    assert id(good) in valid
    with pytest.raises(InvalidInput, match="^outputs must be None or nonnegative ints$"):
        _check_lhv_tables((lookalike, (0, None)), valid)
    # a remembered table still has its length checked against the others
    with pytest.raises(InvalidInput, match="^party tables must share one input range$"):
        _check_lhv_tables((good, (0,)), valid)
    assert DeterministicLhv(tables=(good, (0, None))).tables == ((1, 1), (0, None))


def test_detection_efficiency_zero_when_one_party_never_clicks():
    problem = uniform_problem(2, 2)
    silent_party = DeterministicLhv(tables=((None, None), (0, 1)))
    d = evaluate_mixed_lhv(MixedLhv(components=((silent_party, F(1)),)), problem)
    assert detection_efficiency(d, problem).eta_n == 0
    with pytest.raises(DivisionByZeroEfficiency):
        error_probability(d, problem)


def test_detection_efficiency_one_when_everyone_clicks():
    problem = uniform_problem(2, 2)
    d = evaluate_mixed_lhv(MixedLhv(components=((const_lhv(2, 2, 0), F(1)),)), problem)
    eff = detection_efficiency(d, problem)
    assert eff.eta_n == 1 and eff.eta == 1.0


def test_detection_efficiency_half_support_click():
    # clicks exactly when party 0 reads input 0: half of the uniform support
    problem = uniform_problem(2, 2)
    lhv = DeterministicLhv(tables=((0, None), (0, 0)))
    d = evaluate_mixed_lhv(MixedLhv(components=((lhv, F(1)),)), problem)
    oracle = sum(
        problem.mu_weight(x) for x in problem.support if lhv.clicks_on(x)
    )
    assert oracle == F(1, 2)
    assert detection_efficiency(d, problem).eta_n == F(1, 2)


def _all_zeros_on_ghz3():
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    d = evaluate_mixed_lhv(MixedLhv(components=((const_lhv(3, 2, 0), F(1)),)), problem)
    return problem, d


def test_error_probability_zero_when_target_support_reproduced():
    problem = uniform_problem(2, 2)  # full-support target forbids nothing
    rng = random.Random(3)
    m = random_mixed_lhv(rng, 2, 2)
    d = evaluate_mixed_lhv(m, problem)
    assert error_probability(d, problem) == 0


def test_error_probability_all_zeros_model_on_ghz3():
    problem, d = _all_zeros_on_ghz3()
    # oracle: enumerate the four valid inputs; (0,0,0) is wrong on the three
    # inputs whose forced parity is 1
    wrong = F(0)
    for x in problem.support:
        if problem.target_prob(x, (0, 0, 0)) == 0:
            wrong += problem.mu_weight(x)
    assert wrong == F(3, 4)
    assert error_probability(d, problem) == F(3, 4)


def test_total_variation_all_zeros_model_on_ghz3():
    problem, d = _all_zeros_on_ghz3()
    # oracle: per-input L1 between the point mass at (0,0,0) and the target
    acc = F(0)
    for x in problem.support:
        row = problem.target.get(x)
        for a in itertools.product(range(2), repeat=3):
            model_p = F(1) if a == (0, 0, 0) else F(0)
            acc += problem.mu_weight(x) * abs(row.get(a, F(0)) - model_p)
    assert acc == F(15, 8)
    assert total_variation_error(d, problem) == F(15, 8)
    assert acc >= error_probability(d, problem)  # 15/8 >= 3/4


def test_total_variation_zero_on_exact_reproduction():
    inst = GhzInstance(n=2, k=2)
    problem = ghz_problem(inst)
    # mirror party copies party 0's output bit choice uniformly
    a_even = DeterministicLhv(tables=((0, 0), (0, 1)))
    b_even = DeterministicLhv(tables=((1, 1), (1, 0)))
    d = evaluate_mixed_lhv(
        MixedLhv(components=((a_even, F(1, 2)), (b_even, F(1, 2)))), problem
    )
    assert total_variation_error(d, problem) == 0
    assert error_probability(d, problem) == 0


def test_total_variation_dominates_error_on_random_models():
    rng = random.Random(23)
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    checked = 0
    for _ in range(200):
        m = random_mixed_lhv(rng, 3, 2, detector=True)
        d = evaluate_mixed_lhv(m, problem)
        if detection_efficiency(d, problem).eta_n == 0:
            continue
        checked += 1
        assert total_variation_error(d, problem) >= error_probability(d, problem)
    assert checked > 100


def test_mixture_efficiency_is_convex_combination():
    rng = random.Random(29)
    problem = uniform_problem(3, 2)
    for _ in range(50):
        m = random_mixed_lhv(rng, 3, 2, detector=True)
        d = evaluate_mixed_lhv(m, problem)
        expected = F(0)
        for lhv, w in m.components:
            comp = evaluate_mixed_lhv(MixedLhv(components=((lhv, F(1)),)), problem)
            expected += w * detection_efficiency(comp, problem).eta_n
        assert detection_efficiency(d, problem).eta_n == expected


def test_streaming_metrics_match_distribution_route():
    rng = random.Random(31)
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    checked = 0
    for _ in range(100):
        m = random_mixed_lhv(rng, 3, 2, detector=True)
        d = evaluate_mixed_lhv(m, problem)
        if detection_efficiency(d, problem).eta_n == 0:
            with pytest.raises(DivisionByZeroEfficiency):
                mixed_lhv_metrics(m, problem)
            continue
        met = mixed_lhv_metrics(m, problem)
        checked += 1
        assert met.eta_n == detection_efficiency(d, problem).eta_n
        assert met.eps == error_probability(d, problem)
        assert met.eps_var == total_variation_error(d, problem)
    assert checked > 50


def test_outcome_all_click_predicate():
    assert all_click((0, 1, 0))
    assert not all_click((0, None, 1))


def test_support_is_computed_once_per_problem_and_ignored_by_equality():
    problem = ghz_problem(GhzInstance(n=3, k=2))
    assert problem.support is problem.support
    mu = {x: w for x, w in problem.mu.items()}
    mu[(0, 0, 1)] = Fraction(0)  # a zero weight is kept in mu but not in the support
    fresh = CorrelationProblem(n=3, k=2, l=2, mu=mu, target=dict(problem.target))
    assert fresh.support == problem.support
    assert fresh != problem
    same = CorrelationProblem(n=3, k=2, l=2, mu=dict(problem.mu), target=dict(problem.target))
    # the cached support sits in the instance dict, not among the fields
    assert same == problem and "support" in vars(same)


def test_problem_validation_rejects_bad_weights():
    with pytest.raises(InvalidInput):
        CorrelationProblem(
            n=1,
            k=2,
            l=2,
            mu={(0,): F(1, 2), (1,): F(1, 4)},
            target={(0,): {(0,): F(1)}, (1,): {(0,): F(1)}},
        )


def test_problem_validation_sums_each_shared_row_once():
    # every input shares one bad row object; (0, 0) has no weight, so the
    # first supported input, (0, 1), is the one named
    mu = {(0, 0): F(0), (0, 1): F(1, 3), (1, 0): F(1, 3), (1, 1): F(1, 3)}
    bad = {(0, 0): F(1, 2), (1, 1): F(1, 4)}
    with pytest.raises(InvalidInput, match=r"^target at \(0, 1\) sums to 3/4, expected 1$"):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target={x: bad for x in mu})
    # a good shared row does not hide a bad row of a later input
    good = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    target = {x: good for x in mu}
    target[(1, 1)] = {(0, 0): F(1, 3)}
    with pytest.raises(InvalidInput, match=r"^target at \(1, 1\) sums to 1/3, expected 1$"):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target=target)
    # equal rows that are distinct objects are each summed
    with pytest.raises(InvalidInput, match=r"^target at \(0, 1\) sums to 3/4"):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target={x: dict(bad) for x in mu})


@pytest.mark.parametrize("bad", [0.5, True, "1/2", F(-1, 2)], ids=repr)
@pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["supported", "zero-weight"])
def test_problem_refuses_an_inexact_or_negative_target_entry(bad, where):
    # (1, 1) has no weight; its row is checked all the same
    mu = {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 1): F(0)}
    good = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    target = {x: good for x in mu}
    # the rest of the row makes up the sum where it can, so only the entry is wrong
    target[where] = {(0, 0): bad, (1, 1): 1 - bad if isinstance(bad, Fraction) else F(1, 2)}
    with pytest.raises(
        InvalidInput,
        match=rf"^target entry {re.escape(repr(bad))} for \(0, 0\) at {re.escape(str(where))} "
        "is not a nonnegative Fraction or int$",
    ):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target=target)


def test_problem_accepts_int_entries_and_checks_every_row_sum():
    mu = {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 1): F(0)}
    ints = {(0, 0): 1, (1, 1): 0}
    problem = CorrelationProblem(n=2, k=2, l=2, mu=mu, target={x: ints for x in mu})
    assert problem.target_prob((0, 1), (0, 0)) == 1 and problem.is_forbidden((0, 1), (1, 1))
    m = MixedLhv(components=((const_lhv(2, 2, 0), F(1, 3)), (const_lhv(2, 2, 1), F(2, 3))))
    assert assert_metrics_match(m, problem)
    assert mixed_lhv_metrics(m, problem).eps == F(2, 3)
    # an exact row is decided exactly, even by less than any float tolerance
    hair = {(0, 0): F(1, 2), (1, 1): F(1, 2) + F(1, 10**15)}
    with pytest.raises(InvalidInput, match=r"^target at \(1, 1\) sums to"):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target={**{x: ints for x in mu}, (1, 1): hair})
    # an empty row sums to 0
    with pytest.raises(InvalidInput, match=r"^target at \(1, 1\) sums to 0, expected 1$"):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target={**{x: ints for x in mu}, (1, 1): {}})


@pytest.mark.parametrize("stray", [(7,), (0, 2), (0, 0, 0), (-1, 0), 7], ids=repr)
def test_problem_refuses_a_target_row_outside_the_inputs(stray):
    mu = {(0, 0): F(1, 2), (0, 1): F(1, 2)}
    row = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    with pytest.raises(
        InvalidInput,
        match=rf"^target row for {re.escape(repr(stray))} outside \{{0\.\.1\}}\^2$",
    ):
        CorrelationProblem(n=2, k=2, l=2, mu=mu, target={(0, 0): row, (0, 1): row, stray: row})
    # a row of an input in range but outside the support is kept
    problem = CorrelationProblem(n=2, k=2, l=2, mu=mu, target={(0, 0): row, (0, 1): row, (1, 1): row})
    assert problem.target_prob((1, 1), (0, 0)) == F(1, 2)


def test_problem_validation_rejects_malformed_target_outcomes():
    mu = {(0, 0): F(1, 2), (0, 1): F(1, 2)}
    good = {(0, 0): F(1, 2), (1, None): F(1, 2)}
    for bad in ((1,), (0, 1, 0), (0, 2), (0, -1), (True, 0), (1.0, 0), (0, "1"), 1):
        row = {(0, 0): F(1, 2), bad: F(1, 2)}
        # the row is shared, so the first input using it is the one named
        with pytest.raises(
            InvalidInput,
            match=rf"^target outcome {re.escape(repr(bad))} at \(0, 0\) is not a "
            r"length-2 vector of None and \{0\.\.1\}$",
        ):
            CorrelationProblem(n=2, k=2, l=2, mu=mu, target={(0, 0): row, (0, 1): row})
        with pytest.raises(InvalidInput, match=r"at \(0, 1\) is not"):
            CorrelationProblem(n=2, k=2, l=2, mu=mu, target={(0, 0): good, (0, 1): row})
    # silent entries and every output in {0..l-1} are outcomes
    row = {(2, None): F(1, 3), (None, None): F(1, 3), (0, 1): F(1, 3)}
    CorrelationProblem(n=2, k=2, l=3, mu=mu, target={(0, 0): row, (0, 1): row})


def test_metrics_reject_outputs_outside_the_alphabet():
    # l = 2, so the table entry 7 lies outside the output alphabet
    problem = ghz_problem(GhzInstance(n=3, k=2))
    lhv = DeterministicLhv(tables=((0, 7), (0, 1), (1, 0)))
    m = MixedLhv(components=((lhv, F(1)),))
    for route in (mixed_lhv_metrics, evaluate_mixed_lhv):
        with pytest.raises(InvalidInput, match="output 7 outside"):
            route(m, problem)


# --- grouped metrics against the ModelDistribution route --------------------


def oracle_metrics(m, problem):
    """The slow route: the full induced distribution, then each metric."""
    d = evaluate_mixed_lhv(m, problem)
    eff = detection_efficiency(d, problem)
    if eff.eta_n == 0:
        with pytest.raises(DivisionByZeroEfficiency):
            error_probability(d, problem)
        with pytest.raises(DivisionByZeroEfficiency):
            total_variation_error(d, problem)
        return None
    return eff.eta_n, eff.eta, error_probability(d, problem), total_variation_error(d, problem)


def assert_metrics_match(m, problem):
    expected = oracle_metrics(m, problem)
    if expected is None:
        with pytest.raises(DivisionByZeroEfficiency):
            mixed_lhv_metrics(m, problem)
        return False
    met = mixed_lhv_metrics(m, problem)
    assert (met.eta_n, met.eta, met.eps, met.eps_var) == expected
    return True


def rectangle_lhv(rng, rect, k, l=2):
    """A model that clicks exactly on the rectangle ``rect`` (one click set
    per party), with random outputs there."""
    return DeterministicLhv(
        tables=tuple(
            tuple(rng.randrange(l) if v in clicks else None for v in range(k))
            for clicks in rect
        )
    )


def random_rectangle(rng, n, k):
    return tuple(
        frozenset(v for v in range(k) if rng.random() < 0.5) or frozenset({rng.randrange(k)})
        for _ in range(n)
    )


def random_grouped_mixture(rng, n, k, support):
    """Components drawn from a few rectangles, so that several share one:
    the full rectangle, random ones, a point inside the support, a point
    outside it when there is one, and now and then the silent model."""
    inside = set(support)
    outside = [x for x in itertools.product(range(k), repeat=n) if x not in inside]
    pool = [tuple(frozenset(range(k)) for _ in range(n))]
    pool += [random_rectangle(rng, n, k) for _ in range(2)]
    pool.append(tuple(frozenset({v}) for v in rng.choice(support)))
    if outside:
        pool.append(tuple(frozenset({v}) for v in rng.choice(outside)))
    models = [rectangle_lhv(rng, rng.choice(pool), k) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.3:
        models.append(const_lhv(n, k, None))
    raw = [rng.randint(1, 9) for _ in models]
    return MixedLhv(components=tuple((lhv, F(w, sum(raw))) for lhv, w in zip(models, raw)))


GHZ_SIZES = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4)]


@pytest.mark.parametrize("n,k", GHZ_SIZES)
def test_grouped_metrics_match_oracle_on_ghz(n, k):
    rng = random.Random(1000 * n + k)
    problem = ghz_problem(GhzInstance(n=n, k=k))
    support = problem.support
    trials = 25 if len(support) <= 64 else 8  # the oracle takes ~0.1 s at (5, 4)
    checked = 0
    for _ in range(trials):
        checked += assert_metrics_match(random_grouped_mixture(rng, n, k, support), problem)
    assert checked > trials // 3


def test_grouped_metrics_without_any_click():
    # silent, unsupported and mixed-silent components: no click mass at all
    problem = ghz_problem(GhzInstance(n=3, k=2))
    unsupported = DeterministicLhv(tables=((0, None), (0, None), (None, 1)))  # only (0,0,1)
    assert not problem.mu_weight((0, 0, 1))
    for comps in (
        ((const_lhv(3, 2, None), F(1)),),
        ((unsupported, F(1)),),
        ((unsupported, F(1, 3)), (const_lhv(3, 2, None), F(2, 3))),
    ):
        assert not assert_metrics_match(MixedLhv(components=comps), problem)


def sparse_problem(rng, n, k):
    """Random weights with zero-weight inputs and random rational target rows."""
    inputs = list(itertools.product(range(k), repeat=n))
    raw = [rng.choice([0, 0, 1, 2, 3]) for _ in inputs]
    raw[0] = raw[0] or 1
    mu = {x: F(r, sum(raw)) for x, r in zip(inputs, raw)}
    outcomes = list(itertools.product(range(2), repeat=n))
    target = {}
    for x in inputs:
        cells = [rng.randint(0, 4) for _ in outcomes]
        cells[0] += 1
        target[x] = {a: F(c, sum(cells)) for a, c in zip(outcomes, cells) if c}
    return CorrelationProblem(n=n, k=k, l=2, mu=mu, target=target)


def test_grouped_metrics_on_a_sparse_input_distribution():
    rng = random.Random(41)
    n, k = 3, 3
    problem = sparse_problem(rng, n, k)
    support = problem.support
    assert 1 < len(support) < k**n  # zero-weight inputs exist
    full = tuple(frozenset(range(k)) for _ in range(n))  # larger than the support
    point = tuple(frozenset({v}) for v in problem.support[0])  # smaller
    for rect in (full, point):
        lhvs = [rectangle_lhv(rng, rect, k) for _ in range(3)]
        m = MixedLhv(components=tuple((lhv, F(1, 3)) for lhv in lhvs))
        assert assert_metrics_match(m, problem)
    checked = 0
    for _ in range(40):
        checked += assert_metrics_match(random_grouped_mixture(rng, n, k, support), problem)
    assert checked > 20


# --- the integer eps_var pass against the ModelDistribution route ----------


def hand_built_problem():
    """n=2, k=3, l=2: rows over the coprime denominators 3, 5 and 7, one row
    shared by two inputs, silent outcomes that carry target mass, input
    weights over 3, 6 and 4, and listed inputs of zero weight."""
    mu = {
        (0, 0): F(1, 3), (1, 0): F(1, 6), (0, 1): F(1, 4), (1, 2): F(1, 4),
        (2, 2): F(0), (2, 0): F(0),
    }
    thirds = {(0, 0): F(1, 3), (1, 1): F(2, 3)}
    fifths = {(0, 1): F(2, 5), (1, 0): F(1, 5), (0, None): F(2, 5)}
    sevenths = {(0, 0): F(1, 7), (1, 0): F(4, 7), (None, None): F(2, 7)}
    target = {
        (0, 0): thirds, (1, 0): thirds, (0, 1): fifths, (1, 2): sevenths,
        (2, 2): {(1, 1): F(1)}, (2, 0): thirds,
    }
    return CorrelationProblem(n=2, k=3, l=2, mu=mu, target=target)


#: component weights over the coprime denominators 3, 5, 7 and 105
COPRIME_WEIGHTS = (F(1, 3), F(1, 5), F(1, 7), F(34, 105))


def coprime_mixture(rng, n, k):
    lhvs = [
        DeterministicLhv(
            tables=tuple(tuple(rng.choice((None, 0, 1)) for _ in range(k)) for _ in range(n))
        )
        for _ in COPRIME_WEIGHTS
    ]
    return MixedLhv(components=tuple(zip(lhvs, COPRIME_WEIGHTS)))


def test_integer_pass_matches_oracle_on_a_hand_built_problem():
    rng = random.Random(47)
    problem = hand_built_problem()
    assert len(problem.support) < len(problem.mu)  # listed zero-weight inputs
    checked = 0
    for _ in range(150):
        m = coprime_mixture(rng, 2, 3)
        if assert_metrics_match(m, problem):
            checked += 1
            assert type(mixed_lhv_metrics(m, problem).eps_var) is Fraction
    assert checked > 75
    # one model that clicks only on (0, 1), whose row carries silent mass
    point = DeterministicLhv(tables=((0, None, None), (None, 1, None)))
    assert assert_metrics_match(MixedLhv(components=((point, F(1)),)), problem)


def test_converted_broadcast_metrics_pinned():
    from nonlocal_lab.ghz import broadcast_strategy, broadcast_strategy_mixed
    from nonlocal_lab.protocol import MixedProtocol, to_detector_model

    inst = GhzInstance(n=5, k=4)
    tree = broadcast_strategy(inst)
    detector = to_detector_model(MixedProtocol(components=((tree, F(1)),)))
    met = mixed_lhv_metrics(detector, ghz_problem(inst))
    assert (met.eta_n, met.eps, met.eps_var) == (F(1, 1024), 0, 1023)

    inst = GhzInstance(n=4, k=4)
    problem = ghz_problem(inst)
    detector = to_detector_model(broadcast_strategy_mixed(inst))
    met = mixed_lhv_metrics(detector, problem)
    assert (met.eta_n, met.eps, met.eps_var) == (F(1, 256), 0, 255)
    assert assert_metrics_match(detector, problem)

    # the shared-randomness mixtures at k=2 (512 and 2,048 components)
    for n, eps_var in ((5, 31), (6, 63)):
        inst = GhzInstance(n=n, k=2)
        detector = to_detector_model(broadcast_strategy_mixed(inst))
        met = mixed_lhv_metrics(detector, ghz_problem(inst))
        assert (met.eta_n, met.eps, met.eps_var) == (F(1, 2**n), 0, eps_var)
        assert type(met.eps_var) is Fraction
