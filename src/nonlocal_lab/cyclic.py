"""Exact multiset arithmetic over the cyclic group Z_T: convolution sums,
subgroup bias, coin-flip residue counting, and verification of the bias
bound for long sums of subsets of a power-of-two cyclic group.

Long sums go through :func:`product`: identical factors are grouped and
raised by square-and-multiply, and the groups are multiplied pairwise in a
balanced tree. A multiply whose operands both hold entries of more than
``_KRONECKER_BITS`` bits packs each vector into one int and multiplies once
(Kronecker substitution); smaller or lopsided operands use :func:`conv`,
which skips zero entries.

All verdicts are decided in exact integer/rational arithmetic; inequalities
involving square roots are compared in squared form with explicit sign
handling, so no floating point ever enters a pass/fail decision.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    CrossCheckMismatch,
    InvalidInput,
    ModulusMismatch,
    NotPowerOfTwo,
    PreconditionViolated,
    TooFewSets,
)

INFINITE = math.inf


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def indicator(modulus: int, elements: Iterable[int]) -> tuple[int, ...]:
    """Count vector of ``elements`` reduced mod ``modulus`` (repeats add up)."""
    if modulus < 1:
        raise InvalidInput(f"modulus must be >= 1, got {modulus}")
    counts = [0] * modulus
    for e in elements:
        counts[e % modulus] += 1
    return tuple(counts)


def conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Cyclic convolution of two count vectors of one length m: entry x is
    the sum of a[i] * b[j] over i + j = x mod m. Zero entries of both
    operands are skipped, so sparse operands cost only their occupied pairs.
    """
    m = len(a)
    if len(b) != m:
        raise ModulusMismatch(f"moduli differ: {m} vs {len(b)}")
    occupied = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in occupied:
                out[(i + j) % m] += x * y
    return out


# Both operands of a multiply need more than this many bits in their largest
# entry before one packed big-int multiply replaces the pairwise products of
# ``conv``. Timed on dense vectors (CPython 3.11): the packed multiply wins at
# m = 16 from a few bits on, at m = 8 from between 1,024 and 4,096 bits, and
# at m = 4 only near 65,536 bits; with one small operand ``conv`` always wins.
_KRONECKER_BITS = 2048


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """``conv(a, b)`` for nonnegative count vectors. When both operands carry
    large entries, Kronecker substitution replaces the pairwise products:
    each vector is packed into one int with byte-aligned slots wide enough
    that no coefficient of the linear product overflows, the two ints are
    multiplied once, and slot i + m of the product is folded onto slot i.
    Squaring (``b is a``) packs once."""
    m = len(a)
    if len(b) != m:
        raise ModulusMismatch(f"moduli differ: {m} vs {len(b)}")
    bits_a, bits_b = max(a).bit_length(), max(b).bit_length()
    if min(bits_a, bits_b) <= _KRONECKER_BITS:
        return conv(a, b)
    slot = (bits_a + bits_b + m.bit_length() + 8) // 8  # bytes, >= 1 spare bit

    def pack(v: Sequence[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(slot, "little") for x in v), "little")

    packed_a = pack(a)
    packed = packed_a * (packed_a if b is a else pack(b))
    data = packed.to_bytes(2 * m * slot, "little")
    coeff = [int.from_bytes(data[i : i + slot], "little") for i in range(0, 2 * m * slot, slot)]
    return [coeff[i] + coeff[i + m] for i in range(m)]


def _power(p: Sequence[int], e: int) -> list[int]:
    if e == 1:
        return list(p)
    half = _power(p, e >> 1)
    square = _mul(half, half)
    return _mul(square, p) if e & 1 else square


def power(p: Sequence[int], e: int) -> list[int]:
    """``p`` convolved with itself ``e`` times, by square-and-multiply; each
    step goes through the same multiply as :func:`product`, so large squares
    are Kronecker-substituted while the step by ``p`` itself, whose entries
    are small, stays on :func:`conv`. ``e = 0`` gives the unit vector, all
    mass on residue 0. ``p`` must be a nonempty vector of nonnegative counts.
    """
    if not p:
        raise InvalidInput("a count vector needs at least one entry")
    if min(p) < 0:
        raise InvalidInput(f"count vector entries must be >= 0, got {min(p)}")
    if e < 0:
        raise InvalidInput(f"exponent must be >= 0, got {e}")
    if e == 0:
        return [1] + [0] * (len(p) - 1)
    return _power(p, e)


def product(factors: Iterable[Sequence[int]]) -> list[int]:
    """Convolution of all ``factors`` (nonempty vectors of nonnegative
    counts). Identical factors are grouped and each group is raised to its
    count with :func:`power`, so r copies of one factor cost O(log r)
    multiplies. The groups are then multiplied pairwise, level by level, in
    a balanced tree, so operands of similar size meet at every level; a
    multiply whose operands both have entries of more than
    ``_KRONECKER_BITS`` bits is one packed big-int product (Kronecker
    substitution), any other is :func:`conv`."""
    terms = [power(f, e) for f, e in Counter(map(tuple, factors)).items()]
    if not terms:
        raise InvalidInput("need at least one factor")
    while len(terms) > 1:
        paired = [_mul(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        terms = paired + terms[len(terms) & ~1 :]
    return terms[0]


@dataclass(frozen=True)
class MultisetZ:
    """Multiset over Z_T stored as a length-T vector of multiplicities."""

    modulus: int
    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mult", tuple(int(m) for m in self.mult))
        if self.modulus < 1:
            raise InvalidInput(f"modulus must be >= 1, got {self.modulus}")
        if len(self.mult) != self.modulus:
            raise InvalidInput("multiplicity vector length must equal the modulus")
        if any(m < 0 for m in self.mult):
            raise InvalidInput("multiplicities must be nonnegative")
        if sum(self.mult) == 0:
            raise InvalidInput("a multiset must contain at least one element")

    @property
    def total(self) -> int:
        return sum(self.mult)

    @classmethod
    def from_set(cls, modulus: int, elements: Sequence[int]) -> "MultisetZ":
        return cls(modulus=modulus, mult=indicator(modulus, elements))

    @classmethod
    def uniform(cls, modulus: int) -> "MultisetZ":
        return cls(modulus=modulus, mult=tuple(1 for _ in range(modulus)))


@dataclass(frozen=True)
class Subgroup:
    """Cyclic subgroup of Z_T generated by one element."""

    modulus: int
    generator: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InvalidInput(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.generator < self.modulus:
            raise InvalidInput("generator must lie in 0..modulus-1")

    @property
    def elements(self) -> tuple[int, ...]:
        if self.generator == 0:
            return (0,)
        step = math.gcd(self.generator, self.modulus)
        return tuple(range(0, self.modulus, step))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


def multiset_sum(a: MultisetZ, b: MultisetZ) -> MultisetZ:
    """Multiset of all pairwise sums, i.e. the cyclic convolution."""
    return MultisetZ(modulus=a.modulus, mult=conv(a.mult, b.mult))


def iterated_sum(sets: Sequence[MultisetZ]) -> MultisetZ:
    """Convolution of a sequence of multisets; :func:`conv` raises
    ``ModulusMismatch`` when their moduli differ."""
    if not sets:
        raise InvalidInput("need at least one multiset")
    return MultisetZ(modulus=sets[0].modulus, mult=product(s.mult for s in sets))


def subgroup_bias(a: MultisetZ, h: Subgroup):
    """Smallest eps with mult(x) <= (1+eps)*mult(x+g) for every occupied x
    and every subgroup element g; ``math.inf`` when an occupied element faces
    an empty one inside its coset."""
    if a.modulus != h.modulus:
        raise ModulusMismatch(f"moduli differ: {a.modulus} vs {h.modulus}")
    worst = Fraction(1)
    for x, mx in enumerate(a.mult):
        if mx == 0:
            continue
        for g in h.elements:
            if g == 0:
                continue
            my = a.mult[(x + g) % a.modulus]
            if my == 0:
                return INFINITE
            ratio = Fraction(mx, my)
            if ratio > worst:
                worst = ratio
    return worst - 1


def coin_counts(s: int, big_k: int) -> tuple[int, ...]:
    """How many length-s bit strings have a given Hamming weight mod K.

    Entry x is the exact binomial sum over weights congruent to x mod K.
    """
    if s < 1 or big_k < 1:
        raise InvalidInput("s and K must both be >= 1")
    counts = [0] * big_k
    binom = 1  # C(s, 0), updated multiplicatively
    for j in range(s + 1):
        counts[j % big_k] += binom
        binom = binom * (s - j) // (j + 1)
    return tuple(counts)


def _leq_ratio_bound(numer_hi: int, numer_lo: int, coef: int, s: int) -> bool:
    """Exactly decide  (hi - lo) * sqrt(s) <= coef * lo  for nonnegative ints.

    Both sides squared when the left side is positive; a nonpositive left
    side passes outright (the right side is nonnegative).
    """
    diff = numer_hi - numer_lo
    if diff <= 0:
        return True
    return diff * diff * s <= coef * coef * numer_lo * numer_lo


def check_coins_bound(s: int, big_k: int) -> bool:
    """Exactly verify count(x) <= (1 + 4K/sqrt(s)) * count(y) for all x, y.

    Only the extreme pair matters, so the check is
    (max - min) * sqrt(s) <= 4K * min, decided in squared form.
    Requires s >= K**2.
    """
    if s < big_k * big_k:
        raise PreconditionViolated(f"need s >= K^2, got s={s}, K={big_k}")
    counts = coin_counts(s, big_k)
    return _leq_ratio_bound(max(counts), min(counts), 4 * big_k, s)


def coins_bound_sweep(big_k: int, s_max: int) -> list[tuple[int, bool]]:
    """Evaluate the coin bound for every s from K**2 to ``s_max``.

    The residue counts are advanced one coin at a time (each coin convolves
    with {0,1}), which matches the binomial closed form :func:`coin_counts`
    and is cross-checked against it on a subsample of rounds.
    """
    if s_max < big_k * big_k:
        raise PreconditionViolated(f"need s_max >= K^2, got {s_max}")
    counts = coin = indicator(big_k, (0, 1))  # counts for s = 1
    results: list[tuple[int, bool]] = []
    for s in range(2, s_max + 1):
        counts = conv(counts, coin)
        if s >= big_k * big_k:
            ok = _leq_ratio_bound(max(counts), min(counts), 4 * big_k, s)
            results.append((s, ok))
            if s % 512 == 0 or s == s_max:
                if tuple(counts) != coin_counts(s, big_k):
                    raise CrossCheckMismatch(f"sweep differs from coin_counts at s={s}")
    return results


def repeated_pair_sum(b: int, s: int, big_t: int) -> MultisetZ:
    """The s-fold sum of the pair {0, b}: multiplicity C(s, i) lands on i*b."""
    if s < 1:
        raise InvalidInput(f"s must be >= 1, got {s}")
    if not 0 <= b < big_t:
        raise InvalidInput(f"b must lie in 0..{big_t - 1}")
    return MultisetZ(modulus=big_t, mult=power(indicator(big_t, (0, b)), s))


def _bias_within_bound_t32(bias, big_t: int, r: int) -> bool:
    """Exactly decide bias <= 4*T**(3/2)/sqrt(r) (squared: bias^2*r <= 16*T^3)."""
    if bias == INFINITE:
        return False
    if bias <= 0:
        return True
    return bias.numerator**2 * r <= 16 * big_t**3 * bias.denominator**2


@dataclass(frozen=True)
class Size2Report:
    """Verification record for a sum of many 2-element subsets."""

    subgroup: Subgroup
    majority_difference: int
    majority_count: int
    bias: object  # Fraction or math.inf
    bound: float
    passed: bool


def verify_size2_sets(big_t: int, sets: Sequence[Sequence[int]]) -> Size2Report:
    """Sum r >= T**3 two-element subsets of Z_T (T a power of two) and check
    the resulting multiset is nearly uniform along some nontrivial subgroup.

    Each set is first translated so it contains 0 (translations do not change
    bias); the subgroup is generated by the most common remaining difference
    ``b`` (at least r/T sets share one), and the bias of the full sum with
    respect to <b> must satisfy bias <= 4*T**(3/2)/sqrt(r), decided exactly
    in squared form.
    """
    if not _is_power_of_two(big_t):
        raise NotPowerOfTwo(f"T must be a power of two, got {big_t}")
    r = len(sets)
    if r < big_t**3:
        raise TooFewSets(f"need at least T^3 = {big_t**3} sets, got {r}")
    normalized: list[int] = []
    for s in sets:
        vals = sorted(set(v % big_t for v in s))
        if len(vals) != 2:
            raise InvalidInput(f"sets must have exactly 2 distinct elements, got {s}")
        lo, hi = vals
        normalized.append((hi - lo) % big_t)  # translate so 0 is a member
    tally = Counter(normalized)
    majority = max(tally, key=lambda b: (tally[b], -b))
    count = tally[majority]
    total = MultisetZ(modulus=big_t, mult=product(indicator(big_t, (0, b)) for b in normalized))
    sub = Subgroup(modulus=big_t, generator=majority)
    b_val = subgroup_bias(total, sub)
    passed = _bias_within_bound_t32(b_val, big_t, r)
    return Size2Report(
        subgroup=sub,
        majority_difference=majority,
        majority_count=count,
        bias=b_val,
        bound=4.0 * big_t**1.5 / math.sqrt(r),
        passed=passed,
    )


@dataclass(frozen=True)
class AdditionReport:
    """Verification record for the full sum of r arbitrary subsets."""

    subgroup: Subgroup
    bias: object  # Fraction or math.inf
    bound: float
    passed: bool
    set_count: int


def verify_addition_theorem(big_t: int, sets: Sequence[Sequence[int]]) -> AdditionReport:
    """Exactly sum r >= T**3 subsets of Z_T (each of size >= 2, T = 2**t) and
    check the bias with respect to the order-2 subgroup {0, T/2}.

    The bound is bias <= 4*T**(3/2)/sqrt(r), with 4 the constant carried
    through the underlying coin-counting argument (not a quoted figure);
    the comparison is exact in squared form and the measured bias is
    reported so tighter empirical constants stay visible.
    """
    if not _is_power_of_two(big_t) or big_t < 2:
        raise NotPowerOfTwo(f"T must be a power of two >= 2, got {big_t}")
    r = len(sets)
    if r < big_t**3:
        raise TooFewSets(f"need at least T^3 = {big_t**3} sets, got {r}")
    factors = []
    for s in sets:
        vals = set(v % big_t for v in s)
        if len(vals) < 2:
            raise InvalidInput(f"sets must have at least 2 distinct elements, got {s}")
        factors.append(indicator(big_t, vals))
    total = MultisetZ(modulus=big_t, mult=product(factors))
    sub = Subgroup(modulus=big_t, generator=big_t // 2)
    b_val = subgroup_bias(total, sub)
    return AdditionReport(
        subgroup=sub,
        bias=b_val,
        bound=4.0 * big_t**1.5 / math.sqrt(r),
        passed=_bias_within_bound_t32(b_val, big_t, r),
        set_count=r,
    )


def random_subsets(
    big_t: int, r: int, rng: random.Random, min_size: int = 2, max_size: Optional[int] = None
) -> list[tuple[int, ...]]:
    """Seeded random subsets of Z_T with sizes in [min_size, max_size]."""
    max_size = big_t if max_size is None else max_size
    if not min_size <= max_size <= big_t:
        raise InvalidInput("need min_size <= max_size <= T")
    values = list(range(big_t))
    return [
        tuple(sorted(rng.sample(values, rng.randint(min_size, max_size))))
        for _ in range(r)
    ]


def ghz_bias_subgroup(k: int) -> tuple[int, Subgroup]:
    """Subgroup pairing the two promise-parity residues inside Z_{2k}.

    The near-uniformity bounds in this module assume a power-of-two order;
    other k still define the subgroup but no bound is claimed.
    """
    if not _is_power_of_two(k):
        warnings.warn(
            f"k={k} is not a power of two; subgroup bias bounds do not apply",
            UserWarning,
            stacklevel=2,
        )
    return 2 * k, Subgroup(modulus=2 * k, generator=k)
