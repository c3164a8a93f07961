"""GHZ scenario: promise arithmetic, ideal target, quantum probabilities,
and the broadcast strategies."""

import itertools
import math
from fractions import Fraction

import pytest

from nonlocal_lab import ghz
from nonlocal_lab.errors import (
    BudgetExceeded,
    CrossCheckMismatch,
    InvalidInput,
    LengthMismatch,
)
from nonlocal_lab.ghz import (
    AMPLITUDE_TOLERANCE,
    GhzInstance,
    PhaseMeasurement,
    broadcast_prefix_stats,
    broadcast_prefix_strategy,
    broadcast_strategy,
    broadcast_strategy_mixed,
    default_k,
    equivalence_max_deviation,
    ghz_problem,
    is_valid_input,
    promise_bit,
    quantum_probability,
    target_probability,
    valid_inputs,
)
from nonlocal_lab.model import (
    detection_efficiency,
    error_probability,
    total_variation_error,
)
from nonlocal_lab.protocol import MixedProtocol, cost, induced_distribution

F = Fraction


def test_instance_invariants():
    with pytest.raises(InvalidInput):
        GhzInstance(n=1, k=2)
    with pytest.raises(InvalidInput):
        GhzInstance(n=3, k=1)


def test_is_valid_input_examples():
    assert is_valid_input(GhzInstance(n=3, k=2), (1, 1, 0))
    assert not is_valid_input(GhzInstance(n=3, k=2), (1, 0, 0))
    assert is_valid_input(GhzInstance(n=4, k=4), (1, 1, 1, 1))
    with pytest.raises(LengthMismatch):
        is_valid_input(GhzInstance(n=3, k=2), (1, 1))


def test_promise_bit_examples():
    assert promise_bit(GhzInstance(n=3, k=2), (0, 0, 0)) == 0
    assert promise_bit(GhzInstance(n=3, k=2), (1, 1, 0)) == 1
    assert promise_bit(GhzInstance(n=4, k=4), (3, 3, 1, 1)) == 0
    with pytest.raises(InvalidInput):
        promise_bit(GhzInstance(n=3, k=2), (1, 0, 0))


def test_promise_bit_is_binary_on_all_valid_inputs():
    for n, k in [(2, 2), (3, 2), (3, 4), (4, 3), (2, 5)]:
        inst = GhzInstance(n=n, k=k)
        for x in valid_inputs(inst):
            assert promise_bit(inst, x) in (0, 1)


def test_target_probability_examples():
    i3 = GhzInstance(n=3, k=2)
    assert target_probability(i3, (0, 0, 0), (0, 0, 0)) == F(1, 4)
    assert target_probability(i3, (1, 1, 0), (0, 0, 0)) == 0
    assert target_probability(GhzInstance(n=2, k=2), (1, 1), (0, 1)) == F(1, 2)
    with pytest.raises(InvalidInput):
        target_probability(i3, (1, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidInput):
        target_probability(i3, (0, 0, 0), (0, 2, 0))


def test_target_support_size_and_value():
    for n, k in [(3, 2), (4, 2), (3, 4)]:
        inst = GhzInstance(n=n, k=k)
        for x in valid_inputs(inst):
            nonzero = [
                a
                for a in itertools.product(range(2), repeat=n)
                if target_probability(inst, x, a) > 0
            ]
            assert len(nonzero) == 2 ** (n - 1)
            assert all(target_probability(inst, x, a) == F(1, 2 ** (n - 1)) for a in nonzero)


def test_quantum_probability_examples():
    i3 = GhzInstance(n=3, k=2)
    assert abs(quantum_probability(i3, (0, 0, 0), (0, 0, 0)) - 0.25) < 1e-12
    assert abs(quantum_probability(i3, (1, 1, 0), (0, 0, 0)) - 0.0) < 1e-12
    # outside the promise, probabilities are strictly between the extremes
    assert abs(quantum_probability(i3, (1, 0, 0), (0, 0, 0)) - 0.125) < 1e-12


def test_quantum_normalization_all_inputs():
    cases = [(2, 2), (3, 2), (4, 2), (8, 2), (3, 8), (4, 4)]
    for n, k in cases:
        inst = GhzInstance(n=n, k=k)
        for x in itertools.product(range(k), repeat=n):
            total = sum(
                quantum_probability(inst, x, a)
                for a in itertools.product(range(2), repeat=n)
            )
            assert abs(total - 1.0) < 1e-12


def test_promise_equivalence_small_exhaustive():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 8), (3, 4)]:
        inst = GhzInstance(n=n, k=k)
        for x in valid_inputs(inst):
            for a in itertools.product(range(2), repeat=n):
                q = quantum_probability(inst, x, a)
                t = float(target_probability(inst, x, a))
                assert abs(q - t) < AMPLITUDE_TOLERANCE
        assert equivalence_max_deviation(inst) < AMPLITUDE_TOLERANCE


def per_outcome_max_deviation(inst):
    """Oracle: the per-outcome loop that equivalence_max_deviation replaced,
    one probability for each of the 2**n outcomes of every valid input."""
    n, k = inst.n, inst.k
    phases = ghz._phase_table(k)
    scale = ghz._INV_SQRT2**n
    parities = tuple(bin(m).count("1") & 1 for m in range(2**n))
    p_allowed = 1.0 / 2 ** (n - 1)
    worst = 0.0
    for x in valid_inputs(inst):
        overlap_one = 1 + 0j
        for xi in x:
            overlap_one *= phases[xi]
        overlap_one *= scale
        bit = (sum(x) % (2 * k)) // k
        for m in range(2**n):
            sign = -1.0 if parities[m] else 1.0
            amp = (scale + sign * overlap_one) * ghz._INV_SQRT2
            p = amp.real * amp.real + amp.imag * amp.imag
            t = p_allowed if parities[m] == bit else 0.0
            worst = max(worst, abs(p - t))
    return worst


def test_two_parity_classes_match_the_per_outcome_oracle():
    # every size with k <= 16 and at most 2**16 (input, outcome) points
    sizes = [
        (n, k) for k in range(2, 17) for n in range(2, 17) if k ** (n - 1) * 2**n <= 1 << 16
    ]
    assert len(sizes) == 55
    for n, k in sizes:
        inst = GhzInstance(n=n, k=k)
        assert equivalence_max_deviation(inst) == per_outcome_max_deviation(inst), (n, k)


def test_cross_check_visits_both_parities_on_varying_outcomes(monkeypatch):
    calls = []
    exact = ghz.quantum_probability

    def record(inst, x, a):
        calls.append(a)
        return exact(inst, x, a)

    monkeypatch.setattr(ghz, "quantum_probability", record)
    equivalence_max_deviation(GhzInstance(n=4, k=2), cross_check_stride=1)
    assert [sum(a) % 2 for a in calls] == [0, 1] * 8  # one check per (input, parity)
    for parity in (0, 1):
        assert len({a for a in calls if sum(a) % 2 == parity}) == 8


def test_cross_check_raises_when_the_routes_disagree(monkeypatch):
    # an explicit raise, not an assert, so the check also runs under python -O
    exact = ghz.quantum_probability
    monkeypatch.setattr(ghz, "quantum_probability", lambda *a: exact(*a) + 1e-9)
    with pytest.raises(CrossCheckMismatch):
        equivalence_max_deviation(GhzInstance(n=3, k=2), cross_check_stride=1)
    with pytest.raises(CrossCheckMismatch):  # fewer pairs than the stride: the first is checked
        equivalence_max_deviation(GhzInstance(n=2, k=2))


def test_phase_measurement():
    m = PhaseMeasurement(setting=3, k=4)
    assert 0 <= m.phase < math.pi
    b0, b1 = m.bra(1)
    assert abs(b0 - 1 / math.sqrt(2)) < 1e-15
    assert abs(abs(b1) - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(InvalidInput):
        PhaseMeasurement(setting=4, k=4)


def test_ghz_problem_support_sizes():
    assert len(ghz_problem(GhzInstance(n=3, k=2)).support) == 4
    p2 = ghz_problem(GhzInstance(n=2, k=2))
    assert set(p2.support) == {(0, 0), (1, 1)}
    assert all(p2.mu_weight(x) == F(1, 2) for x in p2.support)
    assert len(ghz_problem(GhzInstance(n=4, k=4)).support) == 64


def test_ghz_problem_resource_limit():
    with pytest.raises(
        BudgetExceeded,
        match="^64 valid inputs exceed the budget of 10; the largest n that fits at k=4 is 2$",
    ):
        ghz_problem(GhzInstance(n=4, k=4), budget=10)


def test_ghz_problem_weights_sum_to_one():
    p = ghz_problem(GhzInstance(n=3, k=4))
    assert sum(p.mu.values()) == 1


def test_broadcast_strategy_cost_and_zero_error():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 4)]:
        inst = GhzInstance(n=n, k=k)
        tree = broadcast_strategy(inst)
        assert cost(tree) == n * math.ceil(math.log2(k))
        problem = ghz_problem(inst)
        d = induced_distribution(
            MixedProtocol(components=((tree, F(1)),)), problem
        )
        assert detection_efficiency(d, problem).eta_n == 1
        assert error_probability(d, problem) == 0


def test_broadcast_mixed_reproduces_target_exactly():
    for n, k in [(2, 2), (3, 2), (3, 4)]:
        inst = GhzInstance(n=n, k=k)
        problem = ghz_problem(inst)
        d = induced_distribution(broadcast_strategy_mixed(inst), problem)
        assert total_variation_error(d, problem) == 0


def test_prefix_stats_match_materialized_trees():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 4)]:
        inst = GhzInstance(n=n, k=k)
        problem = ghz_problem(inst)
        for j in range(n + 1):
            point = broadcast_prefix_stats(inst, j)
            tree = broadcast_prefix_strategy(inst, j)
            assert cost(tree) == point.cost
            d = induced_distribution(MixedProtocol(components=((tree, F(1)),)), problem)
            assert error_probability(d, problem) == point.eps


def test_prefix_answerer_is_the_next_party_or_party_zero():
    for n, k in [(3, 2), (2, 4)]:
        inst = GhzInstance(n=n, k=k)
        for j in range(n + 1):
            answerer = j if j < n else 0
            for leaf in broadcast_prefix_strategy(inst, j).leaves():
                for i, row in enumerate(leaf.lhv.tables):
                    if i != answerer:
                        assert set(row) == {0}
                if j == n:  # the answerer's own setting is already broadcast
                    assert len(set(leaf.lhv.tables[answerer])) == 1


def test_prefix_error_is_monotone_and_hits_zero():
    inst = GhzInstance(n=5, k=2)
    points = [broadcast_prefix_stats(inst, j) for j in range(6)]
    for a, b in zip(points, points[1:]):
        assert b.eps <= a.eps
    assert points[-1].eps == 0
    assert points[inst.n - 1].eps == 0  # the last setting is forced on-promise


def test_default_k():
    assert default_k(2) == 2
    assert default_k(8) == 2
    assert default_k(64) == 2
    assert default_k(65) == 4
    assert default_k(100) == 4


def test_evaluate_point_mass_on_ghz_target():
    # broadcast leaves always land on an allowed outcome
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    tree = broadcast_strategy(inst)
    mp = MixedProtocol(components=((tree, F(1)),))
    d = induced_distribution(mp, problem)
    for x in problem.support:
        ((outcome, p),) = d.probs[x].items()
        assert p == 1
        assert problem.target_prob(x, outcome) > 0
