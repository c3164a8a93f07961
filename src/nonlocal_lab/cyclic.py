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

Random subsets come from one seeded draw kernel, :func:`random_subset_masks`,
which gives each set as an int bitmask on the stream of ``rng.sample``;
:func:`random_subsets` decodes its masks into sorted tuples. The verifiers
take a count of distinct masks (``verify_*_masks``); their set forms turn
each distinct set into a mask first. Each distinct mask is checked once and
packed straight into a term, its bits spread over byte slots.

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
from typing import Iterable, Mapping, Optional, Sequence

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
    terms = []
    for v, e in groups.items():
        if e:
            mass = sum(v)
            if not mass:
                return [0] * m
            width = _width(mass)
            terms.append(_power((mass, width, _pack(v, width)), e, m))
    if not terms:
        return [1] + [0] * (m - 1)
    return _multiply(terms, m)


def _multiply(terms: list[tuple[int, int, int]], m: int) -> list[int]:
    """The product of the packed ``terms`` (at least one), unpacked into its
    m counts: the two terms of least mass are multiplied until one is left."""
    heapq.heapify(terms)
    while len(terms) > 1:
        heapq.heappush(terms, _mul(heapq.heappop(terms), heapq.heappop(terms), m))
    _, width, packed = terms[0]
    data = packed.to_bytes(m * width, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, m * width, width)]


def _spread_table() -> tuple[int, ...]:
    table = [0]
    for i in range(8):  # the bytes with bit i set: those below, plus slot i
        table += [x | 1 << 8 * i for x in table]
    return tuple(table)


#: byte i of ``_SPREAD[b]`` is bit i of the byte b: a byte of a set's bitmask
#: spread over eight one-byte slots
_SPREAD = _spread_table()


def _mask_term(mask: int) -> tuple[int, int, int]:
    """The packed term ``(mass, width, packed)`` of the 0/1 count vector whose
    ones are the bits of ``mask``. Its slots hold 0 or 1, so one byte each."""
    packed = 0
    for shift in range(0, mask.bit_length(), 8):
        packed |= _SPREAD[mask >> shift & 255] << 8 * shift
    return mask.bit_count(), 1, packed


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
) -> Counter[int]:
    """The bitmask (bit v for residue v) of each distinct set in ``sets``,
    counted. Each distinct set is checked once (:func:`_residues`), in order
    of first occurrence, so the first invalid one in input order is named.
    When some entry is not an int (a bool or a float would compare equal to
    one) the sets are checked one by one instead, in input order."""
    if not set(map(type, itertools.chain.from_iterable(sets))) <= {int}:
        for s in sets:
            if not set(map(type, s)) <= {int}:
                raise InvalidInput(f"set entries must be ints, got {s}")
            _residues(big_t, s, sizes, need)
    masks: Counter[int] = Counter()
    for s, count in Counter(map(tuple, sets)).items():
        masks[sum(1 << v for v in _residues(big_t, s, sizes, need))] += count
    return masks


def _elements(mask: int) -> tuple[int, ...]:
    """The positions of the ones of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _check_t_and_r(big_t: int, r: int, least: int) -> None:
    """Refuse a T that is not a power of two >= ``least``, then fewer than
    T**3 sets."""
    if not _is_power_of_two(big_t) or big_t < least:
        floor = f" >= {least}" if least > 1 else ""
        raise NotPowerOfTwo(f"T must be a power of two{floor}, got {big_t}")
    if r < big_t**3:
        raise TooFewSets(f"need at least T^3 = {big_t**3} sets, got {r}")


def _check_masks(
    big_t: int, masks: Mapping[int, int], least: int, sizes: range, need: str
) -> int:
    """The number r of sets that ``masks`` counts. Each count must be an int
    >= 1; then T and r are checked (:func:`_check_t_and_r`), and each
    distinct mask once: an int below 2**T whose number of ones lies in
    ``sizes``."""
    for mask, count in masks.items():
        if type(count) is not int or count < 1:
            raise InvalidInput(f"set counts must be ints >= 1, got {count!r} for {mask!r}")
    r = sum(masks.values())
    _check_t_and_r(big_t, r, least)
    full = 1 << big_t
    for mask in masks:
        if type(mask) is not int or not 0 <= mask < full:
            raise InvalidInput(f"set masks must be ints in [0, 2^T), got {mask!r}")
        if mask.bit_count() not in sizes:
            raise InvalidInput(f"sets must have {need} distinct elements, got {_elements(mask)}")
    return r


def _mask_sum(big_t: int, masks: Mapping[int, int]) -> MultisetZ:
    """The sum of the sets that ``masks`` counts: each distinct set packed
    once (:func:`_mask_term`), raised to its count, then :func:`_multiply`."""
    terms = [_power(_mask_term(mask), copies, big_t) for mask, copies in masks.items()]
    return MultisetZ(modulus=big_t, mult=_multiply(terms, big_t))


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
    _check_t_and_r(big_t, len(sets), 1)
    return verify_size2_masks(big_t, _count_sets(big_t, sets, range(2, 3), "exactly 2"))


def verify_size2_masks(big_t: int, masks: Mapping[int, int]) -> Size2Report:
    """:func:`verify_size2_sets` on sets given as bitmasks (bit v for element
    v), each distinct mask mapped to its number of copies (a ``Counter``)."""
    r = _check_masks(big_t, masks, 1, range(2, 3), "exactly 2")
    tally: Counter[int] = Counter()
    for mask, copies in masks.items():
        # hi - lo: the set translated so 0 is a member
        tally[mask.bit_length() - (mask & -mask).bit_length()] += copies
    majority = max(tally, key=lambda b: (tally[b], -b))
    total = _mask_sum(big_t, {1 | 1 << b: c for b, c in tally.items()})
    sub = Subgroup(modulus=big_t, generator=majority)
    b_val = subgroup_bias(total, sub)
    return Size2Report(
        subgroup=sub,
        majority_difference=majority,
        majority_count=tally[majority],
        bias=b_val,
        bound=4.0 * big_t**1.5 / math.sqrt(r),
        passed=_bias_within_bound_t32(b_val, big_t, r),
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
    _check_t_and_r(big_t, len(sets), 2)
    return verify_addition_masks(
        big_t, _count_sets(big_t, sets, range(2, big_t + 1), "at least 2")
    )


def verify_addition_masks(big_t: int, masks: Mapping[int, int]) -> AdditionReport:
    """:func:`verify_addition_theorem` on sets given as bitmasks (bit v for
    element v), each distinct mask mapped to its number of copies (a
    ``Counter``)."""
    r = _check_masks(big_t, masks, 2, range(2, big_t + 1), "at least 2")
    sub = Subgroup(modulus=big_t, generator=big_t // 2)
    b_val = subgroup_bias(_mask_sum(big_t, masks), sub)
    return AdditionReport(
        subgroup=sub,
        bias=b_val,
        bound=4.0 * big_t**1.5 / math.sqrt(r),
        passed=_bias_within_bound_t32(b_val, big_t, r),
        set_count=r,
    )


def random_subset_masks(
    big_t: int, r: int, rng: random.Random, min_size: int = 2, max_size: Optional[int] = None
) -> list[int]:
    """Seeded random subsets of Z_T with sizes in [min_size, max_size], each
    as a bitmask (bit v for element v), in draw order.

    Stream contract: for any ``random.Random`` the sets, and the state ``rng``
    is left in, equal those of drawing each set as
    ``rng.sample(range(T), rng.randint(min_size, max_size))``.
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
    bits = [1 << v for v in range(big_t)]  # the pool holds each element's bit
    out = []
    for _ in range(r):
        size = getrandbits(span_bits)
        while size >= span:
            size = getrandbits(span_bits)
        size += min_size
        pool_steps = steps[size]
        mask = 0
        if pool_steps is None:
            for _ in range(size):
                j = getrandbits(t_bits)
                while j >= big_t or mask >> j & 1:
                    j = getrandbits(t_bits)
                mask |= 1 << j
        else:
            pool = bits[:]
            for n, n_bits in pool_steps:
                j = getrandbits(n_bits)
                while j >= n:
                    j = getrandbits(n_bits)
                mask |= pool[j]
                pool[j] = pool[n - 1]
        out.append(mask)
    return out


def random_subsets(
    big_t: int, r: int, rng: random.Random, min_size: int = 2, max_size: Optional[int] = None
) -> list[tuple[int, ...]]:
    """The sets of :func:`random_subset_masks` as sorted tuples: for any
    ``random.Random`` the list, and the state ``rng`` is left in, equal those
    of drawing each set as
    ``tuple(sorted(rng.sample(range(T), rng.randint(min_size, max_size))))``.
    The same sizes and rngs are refused."""
    return list(map(_elements, random_subset_masks(big_t, r, rng, min_size, max_size)))


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
