"""Rectangle kernel: residue convolution vs brute force, bias/advantage
correspondence, involvement, scans, and the trade-off inequality."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import lattice_scan, per_outcome_advantage, per_outcome_advantages
from nonlocal_lab import rectangles
from nonlocal_lab.errors import (
    BudgetExceeded,
    DeltaOutOfRange,
    EmptyIntersection,
    EmptyWeight,
    InvalidInput,
)
from nonlocal_lab.ghz import GhzInstance, ghz_problem
from nonlocal_lab.model import CorrelationProblem
from nonlocal_lab.rectangles import (
    INFINITE,
    Rectangle,
    advantage,
    advantage_bias_relation,
    advantages,
    bias,
    eta_n_bound,
    involvement,
    iter_rectangles,
    rectangle_stats,
    rectangle_tradeoff_check,
    residue_counts,
    scan_rectangles,
    stats_to_csv,
)

F = Fraction


def brute_counts(r: Rectangle, modulus: int) -> dict:
    counts = {residue: 0 for residue in range(modulus)}
    for x in itertools.product(*[sorted(s) for s in r.sets]):
        counts[sum(x) % modulus] += 1
    return counts


def test_residue_counts_examples():
    cube = Rectangle(k=2, sets=(frozenset({0, 1}),) * 3)
    assert residue_counts(cube, 4) == {0: 1, 1: 3, 2: 3, 3: 1}
    origin = Rectangle(k=3, sets=(frozenset({0}),) * 5)
    assert residue_counts(origin, 7) == {i: (1 if i == 0 else 0) for i in range(7)}
    square = Rectangle(k=2, sets=(frozenset({0, 1}),) * 2)
    assert residue_counts(square, 2) == {0: 2, 1: 2}


def test_residue_counts_against_brute_force():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 5)
        k = rng.randint(2, 6)
        sets = tuple(
            frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(n)
        )
        r = Rectangle(k=k, sets=sets)
        if r.size > 2**16:
            continue
        modulus = rng.randint(1, 2 * k)
        assert residue_counts(r, modulus) == brute_counts(r, modulus)


def test_advantage_examples():
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    point = Rectangle(k=2, sets=(frozenset({0}),) * 3)
    assert advantage(point, (0, 0, 0), problem) == 1
    cube = Rectangle(k=2, sets=(frozenset({0, 1}),) * 3)
    assert advantage(cube, (0, 0, 0), problem) == F(1, 4)
    empty = Rectangle(k=2, sets=(frozenset({1}), frozenset({0}), frozenset({0})))
    with pytest.raises(EmptyWeight):
        advantage(empty, (0, 0, 0), problem)
    with pytest.raises(InvalidInput):
        advantage(cube, (0, None, 0), problem)


def assert_sweep_matches_oracle(r: Rectangle, problem) -> None:
    """``advantages`` agrees with the per-outcome oracle, also on rectangles
    that carry no input weight."""
    try:
        expected = per_outcome_advantages(r, problem)
    except EmptyWeight:
        with pytest.raises(EmptyWeight):
            advantages(r, problem)
        return
    assert advantages(r, problem) == expected


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_advantages_match_the_per_outcome_oracle(n, k):
    inst = GhzInstance(n=n, k=k)
    problem = ghz_problem(inst)
    for r in iter_rectangles(inst):
        assert_sweep_matches_oracle(r, problem)


def test_advantages_on_a_hand_built_problem():
    # non-uniform weights, a listed zero-weight input whose row admits an
    # outcome no supported row does, an explicit 0 entry, and a silent
    # outcome with positive mass
    mu = {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 2): F(1, 6), (2, 2): F(0)}
    target = {
        (0, 0): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(1, 2)},
        (0, 1): {(0, 1): F(1, 4), (0, None): F(1, 2), (1, 1): F(1, 4)},
        (1, 2): {(0, 0): F(1, 4), (1, 0): F(3, 4)},
        (2, 2): {(1, 1): F(1)},
    }
    problem = CorrelationProblem(n=2, k=3, l=2, mu=mu, target=target)
    for r in iter_rectangles(GhzInstance(n=2, k=3)):
        assert_sweep_matches_oracle(r, problem)
        if any(x in r for x in problem.support):
            for a in itertools.product(range(2), repeat=2):
                assert advantage(r, a, problem) == per_outcome_advantage(r, a, problem)
    whole = Rectangle(k=3, sets=(frozenset({0, 1, 2}),) * 2)
    assert advantages(whole, problem) == {
        (0, 0): F(2, 3), (1, 0): F(2, 3), (0, 1): F(1, 3), (1, 1): F(1, 3)
    }


def test_bias_examples():
    inst = GhzInstance(n=3, k=2)
    cube = Rectangle(k=2, sets=(frozenset({0, 1}),) * 3)
    assert bias(cube, inst) == 2
    point = Rectangle(k=2, sets=(frozenset({0}),) * 3)
    assert bias(point, inst) == INFINITE
    balanced = Rectangle(
        k=2, sets=(frozenset({0, 1}), frozenset({0, 1}), frozenset({0}))
    )
    assert bias(balanced, inst) == 0
    empty = Rectangle(k=2, sets=(frozenset({1}), frozenset({0}), frozenset({0})))
    with pytest.raises(EmptyIntersection):
        bias(empty, inst)


def test_advantage_bias_relation_examples():
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    balanced = Rectangle(
        k=2, sets=(frozenset({0, 1}), frozenset({0, 1}), frozenset({0}))
    )
    stats = rectangle_stats(balanced, inst)
    assert stats.bias == 0 and stats.max_advantage == F(1, 2)
    assert advantage_bias_relation(stats, problem)

    cube = Rectangle(k=2, sets=(frozenset({0, 1}),) * 3)
    stats = rectangle_stats(cube, inst)
    assert stats.bias == 2 and stats.max_advantage == F(3, 4)
    assert advantage_bias_relation(stats, problem)

    point = Rectangle(k=2, sets=(frozenset({0}),) * 3)
    stats = rectangle_stats(point, inst)
    assert stats.bias == INFINITE and stats.max_advantage == 1
    assert advantage_bias_relation(stats, problem)

    # a record that breaks the identity fails, and so does one that keeps
    # it but disagrees with the generic route
    assert not advantage_bias_relation(dataclasses.replace(stats, max_advantage=F(3, 4)), problem)
    wrong = dataclasses.replace(rectangle_stats(cube, inst), sets=balanced.sets)
    assert wrong.max_advantage == (1 + wrong.bias) / (2 + wrong.bias)
    assert not advantage_bias_relation(wrong, problem)


def test_advantage_bias_relation_all_rectangles():
    for n, k in [(3, 2), (4, 2), (2, 3)]:
        inst = GhzInstance(n=n, k=k)
        problem = ghz_problem(inst)
        for r in iter_rectangles(inst):
            try:
                stats = rectangle_stats(r, inst)
            except EmptyIntersection:
                continue
            assert advantage_bias_relation(stats, problem)


def test_involvement_examples():
    assert involvement(Rectangle(k=2, sets=(frozenset({0}), frozenset({0, 1}), frozenset({0, 1})))) == 2
    assert involvement(Rectangle(k=2, sets=(frozenset({0}),) * 4)) == 0
    full = Rectangle(k=3, sets=(frozenset({0, 1, 2}),) * 3)
    assert involvement(full) == 3 and full.size == 27


def test_minuscule_size_bound_everywhere():
    for n, k in [(3, 2), (4, 2), (2, 4)]:
        inst = GhzInstance(n=n, k=k)
        for r in iter_rectangles(inst):
            m = involvement(r)
            assert r.size <= k**m  # log2|R| <= m*log2(k), exactly
            if all(len(s) in (1, k) for s in r.sets):
                assert r.size == k**m  # equality only for full involved sets


def test_tradeoff_check_examples():
    assert rectangle_tradeoff_check(F(1, 2), F(1, 4), 0, F(1), F(0), 3)
    # an error budget at or past 1-delta makes the left side nonpositive
    assert rectangle_tradeoff_check(F(1, 2), F(0), 0, F(1), F(1, 2), 3)
    assert rectangle_tradeoff_check(F(1, 2), F(0), 0, F(1), F(3, 4), 3)
    with pytest.raises(DeltaOutOfRange, match=r"delta must be in \[0, 1\), got 1$"):
        rectangle_tradeoff_check(F(1), F(1), 0, F(1), F(0), 3)
    with pytest.raises(DeltaOutOfRange):
        rectangle_tradeoff_check(F(-1, 2), F(1), 0, F(1), F(0), 3)
    # the check is eta_n <= the bound: 2**c * 2**n * r_cap / (1 - eps/(1-delta))
    assert eta_n_bound(F(1, 2), F(1, 64), 1, F(1, 4), 3) == F(1, 2)
    assert rectangle_tradeoff_check(F(1, 2), F(1, 64), 1, F(1, 2), F(1, 4), 3)
    assert not rectangle_tradeoff_check(F(1, 2), F(1, 64), 1, F(1, 2) + F(1, 10**9), F(1, 4), 3)
    assert eta_n_bound(F(1, 2), F(0), 0, F(1, 2), 3) is None


def test_tradeoff_check_rejects_negative_bit_counts():
    with pytest.raises(InvalidInput, match=r"bit count c must be >= 0, got -1$"):
        rectangle_tradeoff_check(F(1, 2), F(1, 4), -1, F(1), F(0), 3)


def test_scan_delta_zero_is_full_weight():
    for scan in (lattice_scan, scan_rectangles):
        (res,) = scan(GhzInstance(n=3, k=2), [F(0)])
        assert res.r_cap == 1


def test_scan_delta_one_single_point_weight_small_instance():
    inst = GhzInstance(n=2, k=2)
    for scan in (lattice_scan, scan_rectangles):
        (res,) = scan(inst, [F(1)])
        assert res.r_cap == F(1, 2)  # equals the single-point weight 1/k^(n-1)


def test_scan_modes_agree():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 4), (2, 4), (3, 3)]:
        inst = GhzInstance(n=n, k=k)
        deltas = (F(0), F(1, 2), F(3, 4), F(7, 8), F(1))
        lattice = lattice_scan(inst, deltas)
        canonical = scan_rectangles(inst, deltas)
        for a, b in zip(lattice, canonical, strict=True):
            assert a.r_cap == b.r_cap


def test_scan_witness_qualifies():
    inst = GhzInstance(n=3, k=2)
    (res,) = scan_rectangles(inst, [F(7, 8)])
    assert res.r_cap == F(1, 2)
    r = Rectangle(k=2, sets=res.witness)
    counts = residue_counts(r, 4)
    n0, n1 = counts[0], counts[2]
    assert F(max(n0, n1), n0 + n1) >= F(7, 8)
    assert F(n0 + n1, 4) == res.r_cap


def test_scan_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        scan_rectangles(GhzInstance(n=6, k=2), [F(1, 2)], budget=10)


DEFAULT_GRID = (F(1, 2), F(3, 4), F(7, 8))
#: a grid with both ends, and an unsorted one with a repeated threshold
SCAN_GRIDS = (
    (F(0), F(1, 3), F(1, 2), F(3, 4), F(7, 8), F(1)),
    (F(7, 8), F(0), F(2, 3), F(7, 8)),
)
#: the 17 sizes the lattice oracle reaches within 20,000 rectangles, (2,2) to (9,2) and (2,7)
LATTICE_SIZES = [
    (n, k) for k in range(2, 8) for n in range(2, 10) if (2**k - 1) ** n <= 20_000
]


def assert_witnesses_qualify(inst, results):
    """Each witness has weight r_cap and some advantage >= delta."""
    for res in results:
        counts = residue_counts(Rectangle(k=inst.k, sets=res.witness), 2 * inst.k)
        n0, n1 = counts[0], counts[inst.k]
        assert F(n0 + n1, inst.valid_input_count()) == res.r_cap
        assert F(max(n0, n1), n0 + n1) >= res.delta


@pytest.mark.parametrize("n,k", LATTICE_SIZES)
def test_residue_pass_matches_lattice(n, k):
    inst = GhzInstance(n=n, k=k)
    for grid in SCAN_GRIDS:
        lattice = lattice_scan(inst, grid)
        canonical = scan_rectangles(inst, grid)
        assert [s.delta for s in canonical] == list(grid)
        assert [s.r_cap for s in canonical] == [s.r_cap for s in lattice]
        assert_witnesses_qualify(inst, lattice + canonical)


def test_witness_is_the_first_heaviest_in_lattice_order():
    inst = GhzInstance(n=3, k=3)
    for res in lattice_scan(inst, SCAN_GRIDS[1]):
        for r in iter_rectangles(inst):
            counts = residue_counts(r, 6)
            n0, n1 = counts[0], counts[3]
            if n0 + n1 and F(max(n0, n1), n0 + n1) >= res.delta:
                if F(n0 + n1, inst.valid_input_count()) == res.r_cap:
                    assert res.witness == r.sets
                    break
        else:
            pytest.fail(f"no rectangle reaches r_cap {res.r_cap}")


@pytest.mark.parametrize(
    "scan", [lattice_scan, scan_rectangles], ids=["lattice", "canonical"]
)
def test_grid_call_equals_single_delta_calls(scan):
    inst = GhzInstance(n=4, k=3)
    for grid in SCAN_GRIDS:
        whole = scan(inst, grid)
        singles = tuple(scan(inst, [d])[0] for d in grid)
        assert whole == singles


@pytest.mark.parametrize(
    "n,k,caps",
    [
        (64, 2, (F(1), F(1, 2**60), F(1, 2**62))),
        (5, 4, (F(1), F(81, 256), F(7, 64))),
        (6, 4, (F(1), F(183, 1024), F(19, 512))),
        (3, 6, (F(1), F(5, 6), F(7, 12))),
    ],
)
def test_canonical_caps_pinned(n, k, caps):
    # literal caps of the class-by-class canonical enumeration this pass replaced
    inst = GhzInstance(n=n, k=k)
    results = scan_rectangles(inst, DEFAULT_GRID)
    assert tuple(s.r_cap for s in results) == caps
    assert_witnesses_qualify(inst, results)


def test_canonical_budget_rejects_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="9669554100"):
        scan_rectangles(GhzInstance(n=24, k=4), DEFAULT_GRID)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "n,k,message",
    [
        (4471, 2, "10001628 rectangle classes exceed the budget of 10000000; "
                  "the largest n that fits at k=2 is 4470"),
        (13, 4, "20058300 rectangle classes exceed the budget of 10000000; "
                "the largest n that fits at k=4 is 12"),
        (2, 18, "34359607296 rectangle classes exceed the budget of 10000000; "
                "no n fits at k=18"),  # n = 1 fits, but no instance has one party
        (2, 40, "604462909806764831539200 rectangle classes exceed the budget of 10000000; "
                "no n fits at k=40"),
        (2, 8000, "C(2+2^8000-2, 2^8000-1) rectangle classes exceed the budget of 10000000; "
                  "no n fits at k=8000"),
    ],
    ids=["k=2", "k=4", "k=18", "k=40", "k=8000"],
)
def test_scan_budget_is_checked_before_any_part_is_built(monkeypatch, n, k, message):
    def no_parts(k):
        raise AssertionError("the parts were built before the budget check")

    monkeypatch.setattr(rectangles, "_subsets", no_parts)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        scan_rectangles(GhzInstance(n=n, k=k), DEFAULT_GRID, budget=10**7)
    assert str(exc.value) == message
    assert time.perf_counter() - start < 1


def test_empty_grid_scans_nothing(monkeypatch):
    # no result to fold into, so no part is built
    monkeypatch.setattr(rectangles, "_subsets", None)
    assert scan_rectangles(GhzInstance(n=12, k=4), []) == ()


def test_empty_grid_is_refused_over_the_budget():
    with pytest.raises(BudgetExceeded, match="the largest n that fits at k=4 is 12$"):
        scan_rectangles(GhzInstance(n=13, k=4), [])


def test_full_involvement_bias_decreases_with_party_count():
    # deterministic parity-class counts over all singleton offsets
    def worst_bias(n_parties: int, involved: int) -> Fraction:
        inst = GhzInstance(n=n_parties, k=2)
        worst = F(0)
        for offset_parity in range(4):
            sets = [frozenset({0, 1})] * involved + [frozenset({0})] * (
                n_parties - involved
            )
            counts = residue_counts(Rectangle(k=2, sets=tuple(sets)), 4)
            n0 = counts[(-offset_parity) % 4]
            n1 = counts[(2 - offset_parity) % 4]
            if n0 + n1 == 0:
                continue
            if min(n0, n1) == 0:
                return INFINITE
            worst = max(worst, F(max(n0, n1), min(n0, n1)) - 1)
        return worst

    series = [worst_bias(32, m) for m in (4, 8, 16, 32)]
    assert all(b != INFINITE for b in series)
    assert all(a > b for a, b in zip(series, series[1:]))

    full8 = bias(Rectangle(k=2, sets=(frozenset({0, 1}),) * 8), GhzInstance(n=8, k=2))
    full32 = bias(
        Rectangle(k=2, sets=(frozenset({0, 1}),) * 32), GhzInstance(n=32, k=2)
    )
    assert full32 < full8
    assert full8 == F(2, 7)  # (72-56)/56 from the mod-4 binomial classes


def test_stats_and_csv():
    inst = GhzInstance(n=3, k=2)
    stats = [
        rectangle_stats(r, inst)
        for r in iter_rectangles(inst)
        if sum(residue_counts(r, 4)[i] for i in (0, 2)) > 0
    ]
    text = stats_to_csv(stats)
    lines = text.strip().splitlines()
    assert lines[0].startswith("sets,size,involvement")
    assert len(lines) == len(stats) + 1
    cube = rectangle_stats(Rectangle(k=2, sets=(frozenset({0, 1}),) * 3), inst)
    assert cube.n0 == 1 and cube.n1 == 3 and cube.bias == 2
    assert cube.advantage_even == F(1, 4) and cube.advantage_odd == F(3, 4)
    assert cube.max_advantage == F(3, 4) and "01|01|01,8,3,1,3,2,3/4,1\r\n" in text
    assert cube.mu_weight == 1
    assert sum(cube.counts.values()) == cube.size
