"""Cyclic-group multiset machinery: convolution sums, subgroup bias, coin
counting, and the near-uniformity verifications."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from nonlocal_lab.cyclic import (
    INFINITE,
    AdditionReport,
    MultisetZ,
    Size2Report,
    Subgroup,
    check_coins_bound,
    coin_counts,
    coins_bound_sweep,
    conv,
    ghz_bias_subgroup,
    indicator,
    iterated_sum,
    multiset_sum,
    power,
    product,
    random_subset_masks,
    random_subsets,
    repeated_pair_sum,
    subgroup_bias,
    verify_addition_masks,
    verify_addition_theorem,
    verify_size2_masks,
    verify_size2_sets,
)
from nonlocal_lab.errors import (
    InvalidInput,
    ModulusMismatch,
    NotPowerOfTwo,
    PreconditionViolated,
    TooFewSets,
)
from nonlocal_lab.ghz import GhzInstance
from nonlocal_lab.rectangles import Rectangle, residue_counts

F = Fraction


def test_multiset_sum_examples():
    z2 = MultisetZ.from_set(2, (0, 1))
    assert multiset_sum(z2, z2).mult == (2, 2)
    z4 = MultisetZ.from_set(4, (0, 1))
    assert multiset_sum(z4, z4).mult == (1, 2, 1, 0)
    with pytest.raises(ModulusMismatch):
        multiset_sum(z2, z4)
    with pytest.raises(ModulusMismatch):
        iterated_sum([z2, z2, z4])


def brute_sum_counts(modulus, factors):
    """Residue counts of every way to pick one element (with its
    multiplicity) from each factor, enumerated one pick at a time."""
    elements = [[e for e, c in enumerate(f) for _ in range(c)] for f in factors]
    out = [0] * modulus
    for picks in itertools.product(*elements):
        out[sum(picks) % modulus] += 1
    return out


def test_kernel_against_enumeration():
    rng = random.Random(23)
    for _ in range(150):
        big_t = rng.randint(1, 8)

        def draw():
            return [rng.randint(0, 2) for _ in range(big_t)]

        a, b = draw(), draw()
        assert conv(a, b) == brute_sum_counts(big_t, [a, b])
        e = rng.randint(0, 4)
        assert power(a, e) == brute_sum_counts(big_t, [a] * e)
        factors = [draw() for _ in range(rng.randint(1, 3))]
        factors += rng.choices(factors, k=rng.randint(0, 2))
        assert product(factors) == brute_sum_counts(big_t, factors)


def test_power_zero_is_the_unit():
    for big_t in (1, 2, 5, 16):
        unit = [1] + [0] * (big_t - 1)
        assert power(list(range(big_t)), 0) == unit
        assert power([0] * big_t, 0) == unit
    with pytest.raises(InvalidInput):
        power([1, 1], -1)
    with pytest.raises(InvalidInput):
        product([])


def test_product_is_an_order_free_left_fold():
    rng = random.Random(29)
    for big_t in (2, 4, 8, 16):
        for _ in range(4):
            pool = [
                indicator(big_t, rng.sample(range(big_t), rng.randint(1, big_t)))
                for _ in range(rng.randint(1, 4))
            ]
            factors = rng.choices(pool, k=rng.randint(1, 300))
            folded = factors[0]
            for f in factors[1:]:
                folded = conv(folded, f)
            assert product(factors) == list(folded)
            rng.shuffle(factors)
            assert product(factors) == list(folded)


def left_fold(factors):
    folded = factors[0]
    for f in factors[1:]:
        folded = conv(folded, f)
    return list(folded)


@pytest.mark.parametrize("big_t, count", [(2, 4096), (4, 4096), (8, 4096), (16, 2048), (32, 1024)])
def test_product_tree_equals_left_fold(big_t, count):
    rng = random.Random(31 + big_t)
    factors = [[rng.randint(0, 3) for _ in range(big_t)] for _ in range(count)]
    for f in factors:
        f[rng.randrange(big_t)] += 1
    factors += rng.choices(factors, k=count // 8)  # a few repeated factors
    factors += [[1] * big_t] * (count // 4)  # one factor far heavier than any other term
    factors += [[rng.randrange(1 << 70) for _ in range(big_t)] for _ in range(3)]  # wide leaves
    rng.shuffle(factors)
    assert product(factors) == left_fold(factors)
    # inputs the size of residue_counts: a few 0/1 indicator vectors
    for n in range(1, 9):
        parts = [rng.sample(range(big_t), rng.randint(1, big_t)) for _ in range(n)]
        vectors = [indicator(big_t, part) for part in parts]
        assert product(vectors) == left_fold(vectors)


def test_power_of_a_coin_is_coin_counts():
    for big_t in (1, 2, 4, 8, 16, 32):
        for s in (1, 2, 3, 255, 1000, 2049, 4097, 5000):
            assert tuple(power(indicator(big_t, (0, 1)), s)) == coin_counts(s, big_t)


def test_packed_multiply_checks_the_moduli():
    big = 1 << 4096
    with pytest.raises(ModulusMismatch, match="moduli differ: 4 vs 8"):
        product([[big] * 4, [big] * 8])
    with pytest.raises(ModulusMismatch):
        product([[big, 1, 0, big]] * 3 + [[big] * 8] * 5)
    assert product([[big] * 4, [big] * 4]) == conv([big] * 4, [big] * 4)
    with pytest.raises(ModulusMismatch, match="moduli differ: 8 vs 4"):
        product([[1] * 8, [1] * 4])


def test_zero_and_single_factors():
    big = 1 << 4096
    for big_t in (1, 2, 4, 16):
        zero = [0] * big_t
        assert product([zero]) == zero
        assert product([zero] * 5) == zero
        assert product([zero, [big] * big_t, [1] * big_t]) == zero
        assert product([[200] * big_t, zero, [3] * big_t]) == zero  # slots of 2 or 3 bytes
        assert product({tuple(zero): 0, tuple([200] * big_t): 1}) == [200] * big_t
        f = [i + 1 for i in range(big_t)]
        assert product([f]) == f
        assert product([tuple(f)]) == f
        assert product([[big] * big_t]) == [big] * big_t
        assert power(zero, 3) == zero


def test_kernel_rejects_what_is_not_a_count_vector():
    for bad in ([], (), [1, -1], [0, 0, -2, 5]):
        for e in (0, 1, 3):
            with pytest.raises(InvalidInput):
                power(bad, e)
        with pytest.raises(InvalidInput):
            product([[1] * max(len(bad), 1), bad])
    assert conv([1, -1], [1, 1]) == [0, 0]  # conv itself stays general
    assert conv([], []) == []


def test_singleton_sum_is_translation():
    rng = random.Random(3)
    for big_t in (2, 4, 8):
        mult = tuple(rng.randint(0, 5) for _ in range(big_t))
        if sum(mult) == 0:
            mult = (1,) + mult[1:]
        a = MultisetZ(modulus=big_t, mult=mult)
        for d in range(big_t):
            shifted = multiset_sum(a, MultisetZ.from_set(big_t, (d,)))
            assert shifted.mult == tuple(
                a.mult[(i - d) % big_t] for i in range(big_t)
            )
            # translation leaves the bias unchanged, for every subgroup
            for gen in range(big_t):
                h = Subgroup(modulus=big_t, generator=gen)
                assert subgroup_bias(shifted, h) == subgroup_bias(a, h)


def test_subgroup_bias_examples():
    assert subgroup_bias(MultisetZ.uniform(6), Subgroup(6, 2)) == 0
    m = MultisetZ(modulus=4, mult=(1, 2, 1, 0))
    assert subgroup_bias(m, Subgroup(4, 2)) == INFINITE
    m2 = MultisetZ(modulus=4, mult=(3, 0, 2, 0))
    assert subgroup_bias(m2, Subgroup(4, 2)) == F(1, 2)
    assert subgroup_bias(m2, Subgroup(4, 0)) == 0  # trivial subgroup


def test_subgroup_elements():
    assert Subgroup(8, 4).elements == (0, 4)
    assert Subgroup(8, 3).elements == tuple(range(8))  # gcd(3,8)=1
    assert Subgroup(8, 6).elements == (0, 2, 4, 6)
    assert Subgroup(8, 0).is_trivial


def test_sum_is_commutative_and_associative():
    rng = random.Random(17)
    for big_t in (2, 4, 8, 16):
        for _ in range(50):

            def draw():
                mult = [rng.randint(0, 4) for _ in range(big_t)]
                mult[rng.randrange(big_t)] += 1
                return MultisetZ(modulus=big_t, mult=tuple(mult))

            a, b, c = draw(), draw(), draw()
            assert multiset_sum(a, b).mult == multiset_sum(b, a).mult
            assert (
                multiset_sum(multiset_sum(a, b), c).mult
                == multiset_sum(a, multiset_sum(b, c)).mult
            )


def test_adding_never_increases_finite_bias():
    rng = random.Random(19)
    for big_t in (2, 4, 8, 16):
        done = 0
        while done < 250:
            a = MultisetZ(
                modulus=big_t, mult=tuple(rng.randint(1, 6) for _ in range(big_t))
            )
            b_mult = tuple(rng.randint(0, 6) for _ in range(big_t))
            if sum(b_mult) == 0:
                continue
            b = MultisetZ(modulus=big_t, mult=b_mult)
            h = Subgroup(modulus=big_t, generator=rng.randrange(1, big_t))
            bias_a = subgroup_bias(a, h)
            if bias_a == INFINITE:
                continue
            assert subgroup_bias(multiset_sum(a, b), h) <= bias_a
            done += 1


def test_coin_counts_examples():
    assert coin_counts(4, 2) == (8, 8)
    assert coin_counts(2, 4) == (1, 2, 1, 0)
    assert coin_counts(7, 1) == (128,)


def test_coin_counts_against_bit_string_enumeration():
    for s, big_k in [(1, 1), (3, 2), (5, 3), (8, 4), (10, 3), (16, 5), (20, 7)]:
        oracle = [0] * big_k
        for word in range(2**s):
            oracle[word.bit_count() % big_k] += 1
        assert coin_counts(s, big_k) == tuple(oracle)
        assert sum(coin_counts(s, big_k)) == 2**s


def test_check_coins_bound_examples():
    assert check_coins_bound(4, 2)
    assert check_coins_bound(16, 4)
    with pytest.raises(PreconditionViolated):
        check_coins_bound(3, 2)


def test_coins_bound_sweep_matches_pointwise():
    sweep = dict(coins_bound_sweep(3, 64))
    for s in range(9, 65):
        assert sweep[s] == check_coins_bound(s, 3)


def test_repeated_pair_sum_examples():
    assert repeated_pair_sum(1, 2, 2).mult == (2, 2)
    assert repeated_pair_sum(2, 3, 4).mult == (4, 0, 4, 0)
    zero = repeated_pair_sum(0, 5, 4)
    assert zero.mult == (32, 0, 0, 0)
    assert subgroup_bias(zero, Subgroup(4, 0)) == 0


def test_repeated_pair_sum_matches_coin_image():
    # the s-fold pair sum is exactly the coin-count vector pushed along b
    for big_t, b, s in [(4, 2, 9), (8, 2, 16), (8, 6, 20), (16, 4, 17)]:
        h = Subgroup(modulus=big_t, generator=b)
        order = h.order
        counts = coin_counts(s, order)
        pushed = [0] * big_t
        for i, c in enumerate(counts):
            pushed[(i * b) % big_t] += c
        assert repeated_pair_sum(b, s, big_t).mult == tuple(pushed)


def test_repeated_pair_sum_bias_bound():
    # bias w.r.t. <b> at most 4*|<b>|/sqrt(s) once s >= T^2 (squared compare)
    for big_t, b in [(2, 1), (4, 2), (4, 1), (8, 4), (8, 2)]:
        s = big_t * big_t
        h = Subgroup(modulus=big_t, generator=b)
        value = subgroup_bias(repeated_pair_sum(b, s, big_t), h)
        assert value != INFINITE
        assert value.numerator**2 * s <= (4 * h.order) ** 2 * value.denominator**2


def test_verify_size2_sets():
    rng = random.Random(5)
    trivial = [(0, 1)] * 8
    rep = verify_size2_sets(2, trivial)
    assert rep.passed and rep.bias == 0 and rep.majority_difference == 1

    sets = random_subsets(4, 6400, rng, min_size=2, max_size=2)
    rep = verify_size2_sets(4, sets)
    assert rep.passed
    assert rep.bias != INFINITE and rep.bias <= F(2, 5)
    assert rep.majority_count >= 6400 // 4

    with pytest.raises(TooFewSets):
        verify_size2_sets(4, sets[:10])
    with pytest.raises(NotPowerOfTwo):
        verify_size2_sets(3, [(0, 1)] * 100)


def test_verify_addition_theorem():
    rng = random.Random(6)
    full = [tuple(range(4))] * 64
    rep = verify_addition_theorem(4, full)
    assert rep.passed and rep.bias == 0  # uniform convolution stays uniform

    sets = random_subsets(4, 6400, rng)
    rep = verify_addition_theorem(4, sets)
    assert rep.passed and rep.bias <= F(2, 5)
    assert rep.subgroup.elements == (0, 2)

    sets8 = random_subsets(8, 4096, rng)
    rep8 = verify_addition_theorem(8, sets8)
    assert rep8.passed
    assert rep8.subgroup.elements == (0, 4)
    # bound 4*8^1.5/sqrt(4096) = sqrt(2); exact squared comparison
    assert (
        rep8.bias.numerator**2 * 4096 <= 16 * 8**3 * rep8.bias.denominator**2
    )

    with pytest.raises(TooFewSets):
        verify_addition_theorem(4, sets[:10])
    with pytest.raises(NotPowerOfTwo):
        verify_addition_theorem(3, [(0, 1)] * 100)
    with pytest.raises(InvalidInput):
        verify_addition_theorem(2, [(0,)] * 8)


def raw_sets(rng, big_t, r, sizes):
    """r sets of Z_T written as a caller might: unsorted, with repeated
    elements, entries >= T or negative, as lists or tuples, and with equal
    sets recurring. No two elements of a set differ by T/2 (for T > 2), so
    no set is blind to the odd characters and sums keep a nonzero bias."""
    drawn = []
    for _ in range(r):
        if drawn and rng.random() < 0.3:
            s = rng.choice(drawn)
        else:
            residues = [0, big_t // 2]
            while big_t > 2 and any(
                (a - b) % big_t == big_t // 2 for a, b in itertools.combinations(residues, 2)
            ):
                residues = rng.sample(range(big_t), rng.choice(sizes))
            s = [x + big_t * rng.randint(-2, 2) for x in residues]
            s += rng.choices(s, k=rng.randint(0, 2))
            rng.shuffle(s)
        drawn.append(list(s) if rng.random() < 0.5 else tuple(s))
    return drawn


def fold_sum(big_t, vectors):
    total = indicator(big_t, (0,))
    for v in vectors:
        total = conv(total, v)
    return MultisetZ(modulus=big_t, mult=total)


def masks_of(big_t, sets):
    """Each distinct set's bitmask (bit v for residue v mod T), counted."""
    return Counter(sum(1 << v for v in {x % big_t for x in s}) for s in sets)


def within_bound(bias, big_t, r):
    return bias != INFINITE and bias * bias * r <= 16 * big_t**3


@pytest.mark.parametrize("big_t", [2, 4, 8, 16, 32])
def test_verifiers_equal_a_left_fold_over_the_raw_sets(big_t):
    rng = random.Random(41 + big_t)
    r = big_t**3 + rng.randrange(big_t // 2 + 1)
    bound = 4.0 * big_t**1.5 / math.sqrt(r)
    half = Subgroup(modulus=big_t, generator=big_t // 2)
    pairs = raw_sets(rng, big_t, r, (2,))
    # the left fold costs r dense steps on ints of about r bits, so at T=32
    # one family of pairs serves both verifiers: bias ignores translation
    sets = pairs if big_t == 32 else raw_sets(rng, big_t, r, range(2, min(big_t, 4) + 1))

    total = fold_sum(big_t, [indicator(big_t, {v % big_t for v in s}) for s in sets])
    bias = subgroup_bias(total, half)
    report = AdditionReport(
        subgroup=half, bias=bias, bound=bound, passed=within_bound(bias, big_t, r), set_count=r
    )
    assert verify_addition_theorem(big_t, sets) == report
    assert verify_addition_masks(big_t, masks_of(big_t, sets)) == report

    diffs = [max(vals) - min(vals) for vals in ({v % big_t for v in s} for s in pairs)]
    tally = Counter(diffs)
    majority = max(tally, key=lambda b: (tally[b], -b))
    sub = Subgroup(modulus=big_t, generator=majority)
    if sets is not pairs:
        total = fold_sum(big_t, [indicator(big_t, (0, b)) for b in diffs])
    bias = subgroup_bias(total, sub)
    report = Size2Report(
        subgroup=sub,
        majority_difference=majority,
        majority_count=tally[majority],
        bias=bias,
        bound=bound,
        passed=within_bound(bias, big_t, r),
    )
    assert verify_size2_sets(big_t, pairs) == report
    assert verify_size2_masks(big_t, masks_of(big_t, pairs)) == report
    assert big_t == 2 or bias != 0  # the sets avoid T/2 differences: a real bias is compared


# reports of the ``addition`` subcommand's draws at the benchmark sizes, as
# the conv-tree kernel gave them: (T, r, seed, addition bias, passed, size-2
# bias, majority difference, majority count, passed)
PINNED_ADDITION = [
    (4, 6400, 1, F(0), True, F(0), 1, 3176, True),
    (4, 6400, 2, F(0), True, F(0), 1, 3154, True),
    (4, 6400, 3, F(0), True, F(0), 1, 3129, True),
    (8, 4096, 1, F(0), True, F(0), 1, 1043, True),
    (8, 4096, 2, F(0), True, F(0), 1, 1018, True),
    (8, 4096, 3, F(0), True, F(0), 1, 1031, True),
    (16, 4096, 1, F(0), True, F(0), 1, 544, True),
    (16, 4096, 2, F(0), True, F(0), 2, 499, True),
    (16, 4096, 3, F(0), True, F(0), 1, 511, True),
]


@pytest.mark.parametrize("pinned", PINNED_ADDITION)
def test_addition_reports_pinned(pinned):
    big_t, r, seed = pinned[:3]
    rng = random.Random(seed)
    general = verify_addition_theorem(big_t, random_subsets(big_t, r, rng, min_size=2))
    pairs = verify_size2_sets(big_t, random_subsets(big_t, r, rng, min_size=2, max_size=2))
    assert general.set_count == r and general.subgroup.generator == big_t // 2
    assert (
        general.bias,
        general.passed,
        pairs.bias,
        pairs.majority_difference,
        pairs.majority_count,
        pairs.passed,
    ) == pinned[3:]
    assert pairs.subgroup.generator == pairs.majority_difference


def test_verifiers_name_the_first_invalid_set():
    good = [(0, 1)] * 63
    for verify in (verify_addition_theorem, verify_size2_sets):
        for bad in ([0, 1.0], (0, True), ["0", "1"], (0.5, 1)):
            message = re.escape(f"set entries must be ints, got {bad}")
            with pytest.raises(InvalidInput, match=message):
                verify(4, good + [bad])
        # a bool or float set equal to an int set met earlier is still refused
        with pytest.raises(InvalidInput, match=r"got \(False, True\)"):
            verify(4, good + [(False, True)])
        # the first invalid set in input order is named, whatever is wrong with it
        with pytest.raises(InvalidInput, match=r"distinct elements, got \[5\]$"):
            verify(4, good + [[5], (0, 0.5), (3,)])
        with pytest.raises(InvalidInput, match=r"must be ints, got \(0, 0.5\)$"):
            verify(4, good + [(0, 0.5), [5]])
        with pytest.raises(InvalidInput, match=r"distinct elements, got \(2, 6\)$"):
            verify(4, good + [(0, 1), (2, 6), (1, 5)])  # 6 = 2 mod 4
    with pytest.raises(InvalidInput, match=r"exactly 2 distinct elements, got \(0, 1, 2\)$"):
        verify_size2_sets(4, good + [(0, 1, 2)])


def test_random_subsets_checks_the_sizes():
    rng = random.Random(0)
    for min_size, max_size in ((-1, 2), (3, 2), (2, 5)):
        with pytest.raises(InvalidInput):
            random_subsets(4, 10, rng, min_size=min_size, max_size=max_size)
    assert all(len(s) == 0 for s in random_subsets(4, 10, rng, min_size=0, max_size=0))


def _sample_reference(big_t, r, rng, min_size=2, max_size=None):
    """The draw that :func:`random_subsets` must reproduce, set by set."""
    max_size = big_t if max_size is None else max_size
    values = list(range(big_t))
    return [
        tuple(sorted(rng.sample(values, rng.randint(min_size, max_size))))
        for _ in range(r)
    ]


def test_random_subsets_follows_the_sample_stream():
    # T = 32 and 64 reach sample's set case (sizes <= 5); the others its pool case
    for big_t in (2, 4, 8, 16, 32, 64):
        for min_size, max_size in ((2, big_t), (2, 2), (0, big_t), (0, 0), (1, big_t), (3, 5)):
            if max_size > big_t:
                continue  # (3, 5) needs T >= 5
            for seed in range(4):
                ours, theirs = random.Random(seed), random.Random(seed)
                # two draws off one rng, as the CLI makes them: general sets, then pairs
                for lo, hi in ((min_size, max_size), (2, 2)):
                    assert random_subsets(big_t, 60, ours, lo, hi) == _sample_reference(
                        big_t, 60, theirs, lo, hi
                    )
                    assert ours.getstate() == theirs.getstate()


def test_random_subsets_refuses_an_rng_without_getrandbits():
    class Dice(random.Random):
        def random(self):
            return 0.5

    with pytest.raises(InvalidInput, match="getrandbits"):
        random_subsets(4, 10, Dice(0))


def elements(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_subset_masks_follow_the_sample_stream():
    # sizes <= 5 at T = 32 and 64 take sample's set case, all others its pool case
    for big_t in (2, 4, 8, 16, 32, 64):
        for min_size, max_size in (
            (0, 0), (0, 2), (0, big_t), (2, 2), (2, big_t), (big_t, big_t), (2, 5)
        ):
            if max_size > big_t:
                continue
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                masks = random_subset_masks(big_t, 50, ours, min_size, max_size)
                assert all(0 <= m < 1 << big_t for m in masks)
                assert list(map(elements, masks)) == _sample_reference(
                    big_t, 50, theirs, min_size, max_size
                )
                assert ours.getstate() == theirs.getstate()


def test_subset_masks_refuse_a_bad_size_range_and_rng():
    rng = random.Random(0)
    for min_size, max_size in ((-1, 2), (3, 2), (2, 5)):
        message = re.escape(f"need 0 <= min_size <= max_size <= T, got {min_size}, {max_size}")
        for draw in (random_subset_masks, random_subsets):
            with pytest.raises(InvalidInput, match=message):
                draw(4, 10, rng, min_size=min_size, max_size=max_size)

    class Dice(random.Random):
        def random(self):
            return 0.5

    with pytest.raises(InvalidInput, match="rng must draw through getrandbits, got Dice"):
        random_subset_masks(4, 10, Dice(0))
    assert rng.getstate() == random.Random(0).getstate()  # refused before drawing


@pytest.mark.parametrize("big_t, r", [(2, 8), (4, 640), (8, 4096), (16, 4096)])
def test_mask_verifiers_equal_the_set_verifiers_on_one_draw(big_t, r):
    for seed in range(2):
        ours, theirs = random.Random(seed), random.Random(seed)
        general = Counter(random_subset_masks(big_t, r, ours))
        assert verify_addition_masks(big_t, general) == verify_addition_theorem(
            big_t, random_subsets(big_t, r, theirs)
        )
        pairs = Counter(random_subset_masks(big_t, r, ours, 2, 2))
        assert verify_size2_masks(big_t, pairs) == verify_size2_sets(
            big_t, random_subsets(big_t, r, theirs, 2, 2)
        )


def test_mask_verifiers_check_each_distinct_mask():
    good = Counter({0b11: 63})
    for verify, least in ((verify_addition_masks, 2), (verify_size2_masks, 1)):
        with pytest.raises(NotPowerOfTwo, match="got 3$"):
            verify(3, good)
        with pytest.raises(TooFewSets, match="need at least T\\^3 = 64 sets, got 63$"):
            verify(4, good)
        for bad in (0b10000, -1, 1.0, "3"):
            with pytest.raises(InvalidInput, match=re.escape(f"ints in [0, 2^T), got {bad!r}")):
                verify(4, good + Counter({bad: 1}))
        for bad in (0, -2, 1.5):
            with pytest.raises(InvalidInput, match=f"set counts must be ints >= 1, got {bad}"):
                verify(4, {0b11: 64, 0b101: bad})
        with pytest.raises(InvalidInput, match=r"distinct elements, got \(2,\)$"):
            verify(4, good + Counter({0b100: 1}))
    with pytest.raises(InvalidInput, match=r"exactly 2 distinct elements, got \(0, 1, 3\)$"):
        verify_size2_masks(4, good + Counter({0b1011: 1}))
    assert verify_addition_masks(4, good + Counter({0b1011: 1})).set_count == 64


def test_residue_kernel_cross_module_oracle():
    # both modules' routes to the rectangle residue counts agree with
    # enumerating the rectangle's points
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(2, 5)
        sets = tuple(
            frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(n)
        )
        brute = [0] * (2 * k)
        for x in itertools.product(*sets):
            brute[sum(x) % (2 * k)] += 1
        folded = iterated_sum([MultisetZ.from_set(2 * k, tuple(s)) for s in sets])
        assert list(folded.mult) == brute
        assert residue_counts(Rectangle(k=k, sets=sets), 2 * k) == dict(enumerate(brute))


def test_ghz_bias_subgroup_warning():
    modulus, sub = ghz_bias_subgroup(4)
    assert modulus == 8 and sub.elements == (0, 4)
    with pytest.warns(UserWarning):
        ghz_bias_subgroup(3)
    _ = GhzInstance(n=3, k=3)  # non power-of-two instances remain simulable
