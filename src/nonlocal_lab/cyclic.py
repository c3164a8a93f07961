"""Exact multiset arithmetic over the cyclic group Z_T: convolution sums,
subgroup bias, coin-flip residue counting, and verification of the bias
bound for long sums of subsets of a power-of-two cyclic group.

Long sums go through :func:`product`; :func:`power` is its one-factor case.
Identical factors are grouped. Each term is one int with byte-aligned slots
(Kronecker substitution), wide enough for the term's mass, the product of
its factors' sums. A group is raised by square-and-multiply, then the two
terms of least mass are multiplied until one is left; every multiply is one
big-int product folded mod 2^(slot bits * T) - 1. :func:`conv`, which skips
zero entries, stays the kernel for single sums and step-by-step sweeps.
The verifiers count the drawn sets first, so each distinct set is checked
and normalised once.

All verdicts are decided in exact integer/rational arithmetic; inequalities
involving square roots are compared in squared form with explicit sign
handling, so no floating point ever enters a pass/fail decision.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def _width(mass: int) -> int:
    """Bytes per slot for coefficients of at most ``mass``."""
    return (mass.bit_length() + 7) // 8 or 1


def _repack(data: bytes, m: int, width: int, wider: int) -> int:
    """The int whose ``wider``-byte slots hold the m ``width``-byte slots of
    ``data`` (little-endian), moved with one slice per byte or per slot."""
    if width == wider:
        return int.from_bytes(data, "little")
    buf = bytearray(m * wider)
    if width < m:
        for i in range(width):
            buf[i::wider] = data[i::width]
    else:
        for i in range(m):
            buf[i * wider : i * wider + width] = data[i * width : (i + 1) * width]
    return int.from_bytes(buf, "little")


def _pack(v: Sequence[int], width: int) -> int:
    """The count vector ``v`` packed into ``width``-byte slots."""
    try:
        data, size = bytes(v), 1  # every entry below 256
    except ValueError:
        data, size = b"".join(x.to_bytes(width, "little") for x in v), width
    return _repack(data, len(v), size, width)


def _widen(t: tuple[int, int, int], m: int, width: int) -> int:
    return t[2] if t[1] == width else _repack(t[2].to_bytes(m * t[1], "little"), m, t[1], width)


def _mul(a: tuple[int, int, int], b: tuple[int, int, int], m: int) -> tuple[int, int, int]:
    """Product of two packed terms ``(mass, width, packed)``. The mass bounds
    every coefficient of the linear product, so slots of the product's width
    never carry; slot i + m is folded onto slot i by reducing the product
    mod 2^(8*m*width) - 1. An operand is re-packed only if its slots are
    narrower. Squaring (``b is a``) re-packs once."""
    mass = a[0] * b[0]
    width = _width(mass)
    x = _widen(a, m, width)
    p = x * (x if b is a else _widen(b, m, width))
    bits = 8 * m * width
    return mass, width, (p & ((1 << bits) - 1)) + (p >> bits)


def _power(t: tuple[int, int, int], e: int, m: int) -> tuple[int, int, int]:
    if e == 1:
        return t
    half = _power(t, e >> 1, m)
    square = _mul(half, half, m)
    return _mul(square, t, m) if e & 1 else square


def power(p: Sequence[int], e: int) -> list[int]:
    """``p`` convolved with itself ``e`` times: :func:`product` of the one
    factor ``p`` with multiplicity ``e``. ``e = 0`` gives the unit vector,
    all mass on residue 0. ``p`` must be a nonempty vector of nonnegative
    counts."""
    return product({tuple(p): e})


def product(factors: Iterable[Sequence[int]] | Mapping[Sequence[int], int]) -> list[int]:
    """Convolution of all ``factors``: nonempty vectors of nonnegative counts
    of one length m, either listed or as a mapping from each distinct vector
    to its multiplicity (a ``Counter``); a listed product is grouped first.

    Each group is packed once into an int with byte-aligned slots wide
    enough for its mass, which bounds every coefficient, and raised to its
    multiplicity by square-and-multiply, so r copies of one factor cost
    O(log r) multiplies. Then the two terms of least mass are multiplied
    until one is left, so terms of similar mass meet and a heavy term waits
    for the light ones. Every multiply is one big-int product (:func:`_mul`).
    """
    groups = factors if isinstance(factors, Mapping) else Counter(map(tuple, factors))
    if not groups:
        raise InvalidInput("need at least one factor")
    m = len(next(iter(groups)))
    for v, e in groups.items():
        if not v:
            raise InvalidInput("a count vector needs at least one entry")
        if min(v) < 0:
            raise InvalidInput(f"count vector entries must be >= 0, got {min(v)}")
        if e < 0:
            raise InvalidInput(f"exponent must be >= 0, got {e}")
        if len(v) != m:
            raise ModulusMismatch(f"moduli differ: {m} vs {len(v)}")
    heap = []  # terms (mass, width, packed), least mass first
    for v, e in groups.items():
        if e:
            mass = sum(v)
            if not mass:
                return [0] * m
            width = _width(mass)
            heap.append(_power((mass, width, _pack(v, width)), e, m))
    if not heap:
        return [1] + [0] * (m - 1)
    heapq.heapify(heap)
    while len(heap) > 1:
        heapq.heappush(heap, _mul(heapq.heappop(heap), heapq.heappop(heap), m))
    _, width, packed = heap[0]
    data = packed.to_bytes(m * width, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, m * width, width)]


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
    """Convolution of a sequence of multisets; :func:`product` raises
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


def _residues(big_t: int, s: Sequence[int], sizes: range, need: str) -> set[int]:
    """The residues mod T of the set ``s`` of ints, whose number must lie in
    ``sizes``."""
    vals = {v % big_t for v in s}
    if len(vals) not in sizes:
        raise InvalidInput(f"sets must have {need} distinct elements, got {s}")
    return vals


def _count_sets(
    big_t: int, sets: Sequence[Sequence[int]], sizes: range, need: str
) -> Iterator[tuple[set[int], int]]:
    """The residues (:func:`_residues`) and the count of each distinct set in
    ``sets``, in order of first occurrence, so each set is checked once and
    the first invalid one in input order is named. When some entry is not an
    int (a bool or a float would compare equal to one) the sets are checked
    one by one instead, in input order."""
    if not set(map(type, itertools.chain.from_iterable(sets))) <= {int}:
        for s in sets:
            if not set(map(type, s)) <= {int}:
                raise InvalidInput(f"set entries must be ints, got {s}")
            _residues(big_t, s, sizes, need)
    for s, count in Counter(map(tuple, sets)).items():
        yield _residues(big_t, s, sizes, need), count


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
    tally: Counter[int] = Counter()
    for vals, copies in _count_sets(big_t, sets, range(2, 3), "exactly 2"):
        lo, hi = sorted(vals)
        tally[(hi - lo) % big_t] += copies  # translate so 0 is a member
    majority = max(tally, key=lambda b: (tally[b], -b))
    count = tally[majority]
    total = MultisetZ(
        modulus=big_t, mult=product({indicator(big_t, (0, b)): c for b, c in tally.items()})
    )
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
    groups: Counter[bytes] = Counter()
    for vals, copies in _count_sets(big_t, sets, range(2, big_t + 1), "at least 2"):
        groups[bytes(indicator(big_t, vals))] += copies  # 0/1 entries: compact keys
    total = MultisetZ(modulus=big_t, mult=product(groups))
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
    """Seeded random subsets of Z_T with sizes in [min_size, max_size].

    Stream contract: for any ``random.Random`` the list, and the state ``rng``
    is left in, equal those of drawing each set as
    ``tuple(sorted(rng.sample(range(T), rng.randint(min_size, max_size))))``.
    The draws are made straight from ``rng.getrandbits``, as CPython's
    ``_randbelow(m)`` makes them: ``getrandbits(m.bit_length())`` repeated
    until the result is below m (a span of one still draws). The size is
    ``min_size + _randbelow(span)``. ``sample`` then takes one of two cases
    per size s, by ``setsize = 21``, plus ``4**ceil(log(3s, 4))`` if s > 5:

    * T <= setsize: the i-th element is ``pool[_randbelow(T - i)]`` and the
      last unchosen entry of ``pool`` moves into its place;
    * otherwise: ``_randbelow(T)`` is redrawn until it is new to the set.

    An ``rng`` whose ``_randbelow`` is not the ``getrandbits`` one (a
    subclass that overrides only ``random()``) is refused.
    """
    max_size = big_t if max_size is None else max_size
    if not 0 <= min_size <= max_size <= big_t:
        raise InvalidInput(f"need 0 <= min_size <= max_size <= T, got {min_size}, {max_size}")
    if getattr(type(rng), "_randbelow", None) is not random.Random._randbelow_with_getrandbits:
        raise InvalidInput(f"rng must draw through getrandbits, got {type(rng).__name__}")
    getrandbits = rng.getrandbits
    span = max_size - min_size + 1
    span_bits = span.bit_length()
    t_bits = big_t.bit_length()
    # per size: the (bound, bits) of each pool draw, or None for the set case
    steps = [
        [(n, n.bit_length()) for n in range(big_t, big_t - s, -1)]
        if big_t <= 21 + (4 ** math.ceil(math.log(3 * s, 4)) if s > 5 else 0)
        else None
        for s in range(max_size + 1)
    ]
    values = list(range(big_t))
    out = []
    for _ in range(r):
        size = getrandbits(span_bits)
        while size >= span:
            size = getrandbits(span_bits)
        size += min_size
        pool_steps = steps[size]
        if pool_steps is None:
            drawn = set()
            for _ in range(size):
                j = getrandbits(t_bits)
                while j >= big_t or j in drawn:
                    j = getrandbits(t_bits)
                drawn.add(j)
        else:
            pool, drawn = values[:], []
            for n, bits in pool_steps:
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                drawn.append(pool[j])
                pool[j] = pool[n - 1]
        out.append(tuple(sorted(drawn)))
    return out


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
