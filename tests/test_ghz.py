"""GHZ scenario: promise arithmetic, ideal target, quantum probabilities,
and the broadcast strategies."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    expanded_prefix_strategy,
    expanded_strategy_mixed,
    reference_mixed_lhv_to_json,
    reference_mixed_protocol_to_json,
    reference_tree_to_json,
)
from nonlocal_lab import ghz, orbits, serialize
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
from nonlocal_lab.protocol import (
    MixedProtocol,
    _distinct_nodes,
    cost,
    execute,
    induced_distribution,
    to_detector_model,
)

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
        assert max(equivalence_max_deviation(inst)) < AMPLITUDE_TOLERANCE


def per_outcome_max_deviation(inst, inputs=None):
    """Oracle: the per-outcome loop that equivalence_max_deviation replaced,
    one probability for each of the 2**n outcomes of every input in
    ``inputs`` (by default every valid input), as a probability and times
    2**(n-1)."""
    n, k = inst.n, inst.k
    phases = ghz._phase_table(k)
    scale = ghz._INV_SQRT2**n
    parities = tuple(bin(m).count("1") & 1 for m in range(2**n))
    p_allowed = 1.0 / 2 ** (n - 1)
    worst = worst_relative = 0.0
    for x in valid_inputs(inst) if inputs is None else inputs:
        unit = 1 + 0j
        for xi in x:
            unit *= phases[xi]
        overlap_one = unit * scale
        bit = (sum(x) % (2 * k)) // k
        for m in range(2**n):
            sign = -1.0 if parities[m] else 1.0
            amp = (scale + sign * overlap_one) * ghz._INV_SQRT2
            p = amp.real * amp.real + amp.imag * amp.imag
            t = p_allowed if parities[m] == bit else 0.0
            worst = max(worst, abs(p - t))
            half = (1.0 + sign * unit) / 2
            relative = half.real * half.real + half.imag * half.imag
            worst_relative = max(worst_relative, abs(relative - (t != 0.0)))
    return worst, worst_relative


def per_input_max_deviation(inst):
    """Oracle: the walk over every valid input, one overlap product in party
    order and one probability per parity, that the orbit pass replaced."""
    n, k = inst.n, inst.k
    phases = ghz._phase_table(k)
    scale = ghz._INV_SQRT2**n
    p_allowed = 1.0 / 2 ** (n - 1)
    worst = 0.0
    for x in valid_inputs(inst):
        overlap_one = 1 + 0j
        for xi in x:
            overlap_one *= phases[xi]
        overlap_one *= scale
        bit = (sum(x) % (2 * k)) // k
        for parity, sign in ((0, 1.0), (1, -1.0)):
            amp = (scale + sign * overlap_one) * ghz._INV_SQRT2
            p = amp.real * amp.real + amp.imag * amp.imag
            worst = max(worst, abs(p - (p_allowed if parity == bit else 0.0)))
    return worst


#: every size with k <= 16 and at most 2**16 (input, outcome) points
WALK_SIZES = [
    (n, k) for k in range(2, 17) for n in range(2, 17) if k ** (n - 1) * 2**n <= 1 << 16
]

#: the sizes where the walk's maximum comes from a member other than the
#: sorted one, one rounding step above the orbit pass
UNSORTED_MAXIMUM = {(3, 5), (4, 7), (4, 9)}


def test_two_parity_classes_match_the_per_outcome_oracle():
    assert len(WALK_SIZES) == 55
    for n, k in WALK_SIZES:
        inst = GhzInstance(n=n, k=k)
        dev = equivalence_max_deviation(inst)
        reps = [rep for rep, _ in orbits.valid_input_orbits(n, k)]
        assert dev == per_outcome_max_deviation(inst, reps), (n, k)
        walk = per_input_max_deviation(inst)
        assert walk == per_outcome_max_deviation(inst)[0], (n, k)
        assert dev.absolute <= walk and max(dev) < AMPLITUDE_TOLERANCE, (n, k)
        assert (dev.absolute < walk) == ((n, k) in UNSORTED_MAXIMUM), (n, k)


def test_orbits_partition_the_valid_inputs():
    for n, k in WALK_SIZES:
        members = {}
        for x in valid_inputs(GhzInstance(n=n, k=k)):
            rep = tuple(sorted(x))
            members[rep] = members.get(rep, 0) + 1
        listed = list(orbits.valid_input_orbits(n, k))
        assert [rep for rep, _ in listed] == sorted(members), (n, k)
        assert dict(listed) == members, (n, k)
        assert sum(m for _, m in listed) == k ** (n - 1), (n, k)


@pytest.mark.parametrize(
    "n,k,count", [(20, 2, 11), (20, 4, 446), (5, 8, 99), (200, 2, 101), (60, 4, 9936)]
)
def test_orbit_counts(n, k, count):
    assert sum(1 for _ in orbits.valid_input_orbits(n, k)) == count


def test_orbit_multiplicities_must_sum_to_the_valid_inputs(monkeypatch):
    monkeypatch.setattr(orbits, "multiplicity", lambda rep: 1)
    with pytest.raises(CrossCheckMismatch, match="not the 2\\^3 valid inputs"):
        list(orbits.valid_input_orbits(4, 2))


def test_orbit_pass_size_rises_with_n():
    for k in (2, 3, 4, 16):
        sizes = [orbits.orbit_pass_size(n, k) for n in range(0, 60)]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    assert orbits.orbit_pass_size(3161, 2) == 3162 * 3161


def test_cross_check_visits_both_parities_on_varying_outcomes(monkeypatch):
    calls = []
    exact = ghz.quantum_probability

    def record(inst, x, a, scaled=False):
        calls.append((x, a))
        return exact(inst, x, a, scaled)

    monkeypatch.setattr(ghz, "quantum_probability", record)
    equivalence_max_deviation(GhzInstance(n=4, k=2), cross_check_stride=1)
    # three orbits (no, two or four parties at setting 1) times two parities
    assert [sum(a) % 2 for _, a in calls] == [0, 1] * 3
    for parity in (0, 1):
        assert len({a for _, a in calls if sum(a) % 2 == parity}) == 3
    # the direct route sees each orbit on a member other than the sorted one
    assert [x for x, _ in calls[::2]] == [(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)]


def test_cross_check_raises_when_the_routes_disagree(monkeypatch):
    # an explicit raise, not an assert, so the check also runs under python -O
    exact = ghz.quantum_probability
    monkeypatch.setattr(ghz, "quantum_probability", lambda *a, **kw: exact(*a, **kw) + 1e-9)
    with pytest.raises(CrossCheckMismatch):
        equivalence_max_deviation(GhzInstance(n=3, k=2), cross_check_stride=1)
    with pytest.raises(CrossCheckMismatch):  # fewer pairs than the stride: the first is checked
        equivalence_max_deviation(GhzInstance(n=2, k=2))


def test_a_relative_error_fails_where_the_absolute_rule_cannot_see_it(monkeypatch):
    # settings 1..3 off by a relative 1e-9; the first pair, all parties at
    # setting 0, is the only one cross-checked
    exact = ghz._phase_table(4)
    monkeypatch.setattr(
        ghz, "_phase_table", lambda k: exact[:1] + tuple(z * (1 + 1e-9) for z in exact[1:])
    )
    dev = equivalence_max_deviation(GhzInstance(n=60, k=4), cross_check_stride=10**9)
    assert dev.absolute < AMPLITUDE_TOLERANCE < dev.relative


def test_direct_route_checks_on_the_relative_scale(monkeypatch):
    inst = GhzInstance(n=60, k=4)
    x, a = (0,) * 60, (0,) * 60
    assert quantum_probability(inst, x, a, scaled=True) == pytest.approx(1.0, abs=1e-12)
    assert quantum_probability(inst, x, a) == pytest.approx(2.0**-59, rel=1e-12)
    # a bra off by a relative 1e-9 moves the probability by about 2**-59 * 1.2e-7,
    # far below the tolerance, but the check reads it times 2**59
    bra = PhaseMeasurement.bra
    monkeypatch.setattr(
        PhaseMeasurement, "bra", lambda m, o: tuple(b * (1 + 1e-9) for b in bra(m, o))
    )
    with pytest.raises(CrossCheckMismatch):
        quantum_probability(inst, x, a)


@pytest.mark.parametrize("n", [1100, 2200, 3161])
def test_direct_route_at_large_n(n):
    # 2**n no longer converts to a float from n=1025, and (1/sqrt 2)**n
    # underflows near n=2150; the overlaps are rescaled exactly instead
    inst = GhzInstance(n=n, k=2)
    x = (1, 1) + (0,) * (n - 2)
    assert quantum_probability(inst, x, (1,) + (0,) * (n - 1), scaled=True) == pytest.approx(
        1.0, abs=1e-12
    )
    assert quantum_probability(inst, x, (0,) * n, scaled=True) == pytest.approx(0.0, abs=1e-12)
    assert quantum_probability(inst, x, (0,) * n) == 0.0


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


def distinct_node_count(tree) -> int:
    return sum(1 for _ in _distinct_nodes((tree.root,)))


# every size whose expanded full broadcast has at most 4,096 leaves, each
# built by the oracle in about 0.1 s; the oracle reaches (14, 2), (8, 3),
# (7, 4) and (6, 5) within a second, but all prefixes there take seconds
PREFIX_SIZES = (
    [(n, 2) for n in range(2, 13)]
    + [(n, 3) for n in range(2, 8)]
    + [(n, 4) for n in range(2, 7)]
    + [(n, 5) for n in range(2, 6)]
    + [(n, 6) for n in range(2, 5)]
)


@pytest.mark.parametrize("n,k", PREFIX_SIZES)
def test_prefix_strategies_equal_the_expanded_oracle(n, k):
    """Every prefix: the shared DAG equals the expanded tree, writes the
    same text, and has at most (prefix+1)*2k distinct nodes."""
    inst = GhzInstance(n=n, k=k)
    for prefix in range(n + 1):
        tree = broadcast_prefix_strategy(inst, prefix)
        oracle = expanded_prefix_strategy(inst, prefix)
        assert tree == oracle
        assert distinct_node_count(tree) <= (prefix + 1) * 2 * k
        text = serialize.dumps(serialize.tree_to_json(tree))
        assert text == serialize.dumps(reference_tree_to_json(oracle))


# every size whose expanded mixture has at most 8,192 leaves in all
MIXED_SIZES = (
    [(n, 2) for n in range(2, 8)]
    + [(n, 3) for n in range(2, 6)]
    + [(n, 4) for n in range(2, 5)]
    + [(3, 5), (3, 6)]
)


@pytest.mark.parametrize("n,k", MIXED_SIZES)
def test_mixed_strategy_equals_the_expanded_oracle(n, k):
    """The mixture and its detector model write the same text as the
    expanded oracle's, and each tree has at most (n+1)*2k distinct nodes."""
    inst = GhzInstance(n=n, k=k)
    mixed = broadcast_strategy_mixed(inst)
    oracle = expanded_strategy_mixed(inst)
    assert mixed == oracle
    for tree, _ in mixed.components:
        assert distinct_node_count(tree) <= (n + 1) * 2 * k
    text = serialize.dumps(serialize.mixed_protocol_to_json(mixed))
    assert text == serialize.dumps(reference_mixed_protocol_to_json(oracle))
    text = serialize.dumps(serialize.mixed_lhv_to_json(to_detector_model(mixed)))
    assert text == serialize.dumps(reference_mixed_lhv_to_json(to_detector_model(oracle)))


def test_broadcast_past_the_expanded_reach():
    """At n=12, k=4 the expanded tree has 4**12 leaves; the DAG has at most
    (n+1)*2k nodes, and seeded valid inputs reach the forced parity."""
    inst = GhzInstance(n=12, k=4)
    tree = broadcast_strategy(inst)
    assert distinct_node_count(tree) <= 13 * 8
    rng = random.Random(12)
    for _ in range(200):
        head = tuple(rng.randrange(4) for _ in range(11))
        x = head + ((-sum(head)) % 4,)
        _, outcome = execute(tree, x)
        assert sum(outcome) % 2 == promise_bit(inst, x)


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
