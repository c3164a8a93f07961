"""Rectangle combinatorics over the input space: admissible-outcome
advantage, parity bias, exact residue counting by convolution, one exact
weight-cap scan (a party-by-party pass over residue vectors mod 2k), and
the communication/efficiency/error trade-off inequality driven by the caps.

A rectangle is a Cartesian product of per-party setting subsets; it is
exactly the shape of any deterministic local model's preimage of a fixed
outcome, which is why caps on "advantaged" rectangles constrain every
classical model. :class:`RectangleStats` is the one per-rectangle record:
its parity-class counts give the bias and the maximum advantage.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cyclic import conv, indicator, product
from .errors import (
    DEFAULT_BUDGET,
    CrossCheckMismatch,
    DeltaOutOfRange,
    EmptyIntersection,
    EmptyWeight,
    InvalidInput,
    check_budget,
    log2_comb_lower,
)
from .ghz import OUTPUTS, GhzInstance
from .model import CorrelationProblem, OutcomeVector, all_click

INFINITE = math.inf


@dataclass(frozen=True)
class Rectangle:
    """Product of per-party subsets of {0..k-1}, each nonempty."""

    k: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for s in self.sets:
            if not s:
                raise InvalidInput("rectangle parts must be nonempty")
            if any(not (0 <= v < self.k) for v in s):
                raise InvalidInput(f"rectangle part {set(s)} outside 0..{self.k - 1}")

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def size(self) -> int:
        size = 1
        for s in self.sets:
            size *= len(s)
        return size

    def __contains__(self, x: Sequence[int]) -> bool:
        return len(x) == self.n and all(v in s for v, s in zip(x, self.sets))


def residue_counts(r: Rectangle, modulus: int) -> dict[int, int]:
    """Exact counts of rectangle points by (sum of entries) mod ``modulus``.

    Computed by convolving the per-party indicator vectors, so it stays
    polynomial even when the rectangle itself is astronomically large.
    """
    factors = [indicator(modulus, s) for s in r.sets]
    counts = product(factors) if factors else indicator(modulus, (0,))
    return dict(enumerate(counts))


def involvement(r: Rectangle) -> int:
    """Number of parties whose subset has at least two settings.

    The rectangle size can never exceed k**involvement.
    """
    m = sum(1 for s in r.sets if len(s) >= 2)
    if r.size > r.k**m:
        raise CrossCheckMismatch(f"size {r.size} exceeds k**involvement = {r.k**m}")
    return m


def advantages(r: Rectangle, problem: CorrelationProblem) -> dict[OutcomeVector, Fraction]:
    """Every click outcome's advantage on ``r``, from one sweep of rectangle
    ∩ support: the fraction of the rectangle's input weight on which the
    outcome is admissible (has nonzero target probability).

    Each input of ``r`` with nonzero weight adds its weight to the total and
    to the tally of every outcome in ``{0..l-1}^n`` that its target row
    admits; outcomes admitted nowhere in ``r`` are not listed (advantage 0).
    Reads only ``problem.mu`` and ``problem.target``. Raises ``EmptyWeight``
    when the rectangle carries no input weight.
    """
    weight = Fraction(0)
    tally: dict[OutcomeVector, Fraction] = {}
    for x, w in problem.mu.items():
        if w > 0 and x in r:
            weight += w
            for a, p in problem.target[x].items():
                if p > 0 and None not in a:
                    tally[a] = tally.get(a, 0) + w
    if weight == 0:
        raise EmptyWeight("rectangle carries no input weight")
    return {a: t / weight for a, t in tally.items()}


def advantage(r: Rectangle, a: OutcomeVector, problem: CorrelationProblem) -> Fraction:
    """Fraction of the rectangle's input weight on which outcome ``a`` is
    admissible (has nonzero target probability); see :func:`advantages`."""
    if len(a) != r.n or not all_click(a):
        raise InvalidInput("advantage is defined for click-only outcomes of length n")
    return advantages(r, problem).get(a, Fraction(0))


def _max_advantage(n0: int, n1: int) -> Fraction:
    """The larger promise-parity class's share of a rectangle's valid inputs."""
    return Fraction(max(n0, n1), n0 + n1)


@dataclass(frozen=True)
class RectangleStats:
    """Exact per-rectangle figures: the one record behind :func:`bias`,
    :func:`advantage_bias_relation` and :func:`stats_to_csv`."""

    sets: tuple[frozenset[int], ...]
    size: int
    involvement: int
    counts: dict[int, int]
    n0: int
    n1: int
    bias: object  # Fraction or math.inf
    advantage_even: Fraction
    advantage_odd: Fraction
    max_advantage: Fraction
    mu_weight: Fraction


def rectangle_stats(r: Rectangle, inst: GhzInstance) -> RectangleStats:
    """All figures from one residue count mod 2k. The promise-parity
    classes are residues 0 and k; ``bias`` is the larger class over the
    smaller one, minus 1, and ``math.inf`` when exactly one is empty.
    Raises ``EmptyIntersection`` when both are."""
    counts = residue_counts(r, 2 * inst.k)
    n0, n1 = counts[0], counts[inst.k]
    total = n0 + n1
    if total == 0:
        raise EmptyIntersection("rectangle contains no valid inputs")
    return RectangleStats(
        sets=r.sets,
        size=r.size,
        involvement=involvement(r),
        counts=counts,
        n0=n0,
        n1=n1,
        bias=INFINITE if min(n0, n1) == 0 else Fraction(max(n0, n1), min(n0, n1)) - 1,
        advantage_even=Fraction(n0, total),
        advantage_odd=Fraction(n1, total),
        max_advantage=_max_advantage(n0, n1),
        mu_weight=Fraction(total, inst.valid_input_count()),
    )


def bias(r: Rectangle, inst: GhzInstance):
    """Smallest delta such that the two parity classes of valid inputs inside
    the rectangle are within a factor (1+delta) of each other.

    Returns ``math.inf`` when one class is empty and the other is not.
    """
    return rectangle_stats(r, inst).bias


def advantage_bias_relation(stats: RectangleStats, problem: CorrelationProblem) -> bool:
    """Verify that bias <= delta holds exactly when every click outcome has
    advantage at most (1+delta)/(2+delta).

    Both quantities reduce to the two parity-class counts, so the check is
    the exact identity max_advantage == (1+bias)/(2+bias) (advantage 1 for
    one-sided rectangles). The maximum advantage is also recomputed on
    ``problem``, the instance's ``ghz_problem`` built once for every
    rectangle, as an independent route: :func:`advantages` sweeps the
    rectangle's supported inputs once, reading only the input weights and
    target rows, and tallies every admissible click outcome in that sweep.
    """
    b = stats.bias
    if stats.max_advantage != (1 if b == INFINITE else (1 + b) / (2 + b)):
        return False
    r = Rectangle(k=problem.k, sets=stats.sets)
    return max(advantages(r, problem).values(), default=0) == stats.max_advantage


def stats_to_csv(stats: Sequence[RectangleStats]) -> str:
    """Render rectangle statistics as CSV (bias rendered as num/den or inf)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["sets", "size", "involvement", "n0", "n1", "bias", "max_advantage", "mu_weight"]
    )
    for s in stats:
        sets_txt = "|".join("".join(str(v) for v in sorted(part)) for part in s.sets)
        bias_txt = "inf" if s.bias == INFINITE else str(s.bias)
        writer.writerow(
            [
                sets_txt,
                s.size,
                s.involvement,
                s.n0,
                s.n1,
                bias_txt,
                str(s.max_advantage),
                str(s.mu_weight),
            ]
        )
    return buf.getvalue()


def eta_n_bound(
    delta: Fraction, r_cap: Fraction, c: int, eps: Fraction, n: int
) -> Optional[Fraction]:
    """The largest all-click probability eta**n that the rectangle-cap
    constraint allows a classical model with ``c`` bits and error ``eps``:

        (eta_n / 2**c) * (1 - eps/(1-delta)) <= l**n * r_cap

    valid whenever every rectangle with some outcome-advantage >= delta has
    input weight at most ``r_cap``; ``l`` is the GHZ output alphabet size.
    ``None`` when eps >= 1 - delta, where the constraint says nothing.
    """
    if not 0 <= delta < 1:
        raise DeltaOutOfRange(f"delta must be in [0, 1), got {delta}")
    if c < 0:
        raise InvalidInput(f"bit count c must be >= 0, got {c}")
    if eps >= 1 - delta:
        return None
    return 2**c * Fraction(OUTPUTS**n) * r_cap / (1 - eps / (1 - delta))


def rectangle_tradeoff_check(
    delta: Fraction, r_cap: Fraction, c: int, eta_n: Fraction, eps: Fraction, n: int
) -> bool:
    """Exactly evaluate the rectangle-cap constraint of :func:`eta_n_bound`
    on a classical model. A sound cap can never make this fail."""
    bound = eta_n_bound(delta, r_cap, c, eps, n)
    return bound is None or eta_n <= bound


def _subsets(k: int) -> list[frozenset[int]]:
    """Nonempty subsets of {0..k-1}, by size, then lexicographically."""
    return [
        frozenset(s) for size in range(1, k + 1) for s in itertools.combinations(range(k), size)
    ]


def iter_rectangles(inst: GhzInstance) -> Iterator[Rectangle]:
    """All rectangles with nonempty per-party subsets (the full lattice)."""
    for sets in itertools.product(_subsets(inst.k), repeat=inst.n):
        yield Rectangle(k=inst.k, sets=sets)


@dataclass(frozen=True)
class ScanResult:
    """Largest input weight among rectangles meeting an advantage threshold."""

    delta: Fraction
    r_cap: Fraction
    examined: int  # residue vectors kept over all layers of the pass
    witness: Optional[tuple[frozenset[int], ...]]


def _residue_pass(n: int, k: int, parts: list, vector) -> tuple[list, int]:
    """Party-by-party pass keyed by residue vector mod 2k; each key keeps the
    first rectangle found, as multiplicities of ``parts``. Returns the last
    layer, keyed by (n0, n1), as (sets, n0, n1), and the keys kept in all."""
    layer, kept = {tuple(indicator(2 * k, (0,))): (0,) * len(parts)}, 0
    for party in range(n):
        nxt: dict = {}
        for vec, mult in layer.items():
            for i, part in enumerate(parts):
                counts = conv(vec, vector(part))
                key = (counts[0], counts[k]) if party == n - 1 else tuple(counts)
                if key not in nxt:
                    nxt[key] = mult[:i] + (mult[i] + 1,) + mult[i + 1 :]
        kept += len(nxt)
        layer = nxt
    return [
        (tuple(p for p, m in zip(parts, mult) for _ in range(m)), n0, n1)
        for (n0, n1), mult in layer.items()
    ], kept


def scan_rectangles(
    inst: GhzInstance, deltas: Sequence[Fraction], budget: int = DEFAULT_BUDGET
) -> tuple[ScanResult, ...]:
    """Maximum input weight over rectangles with some advantage >= delta:
    one exact result per delta of the grid, in grid order, from one pass.
    Each delta's witness is the first strictly heavier qualifying rectangle.

    A rectangle enters the caps only through its residue-count vector mod
    2k, a convolution of per-party indicator vectors, so ``_residue_pass``
    keeps each vector once. The budget applies to the party-permutation
    class count C(n + 2**k - 2, 2**k - 1), which bounds the vectors of any
    layer; it is checked from the 2**k - 1 nonempty parts before any of
    them is built, also for an empty grid. The test suite compares the pass
    with a walk over every rectangle of the lattice.
    """
    for delta in deltas:
        if not 0 <= delta <= 1:
            raise DeltaOutOfRange(f"delta must be in [0, 1], got {delta}")
    n, k = inst.n, inst.k
    nparts = 2**k - 1
    check_budget(
        lambda m: math.comb(m + nparts - 1, nparts - 1),
        n,
        budget,
        "rectangle classes",
        f"C({n}+2^{k}-2, 2^{k}-1)",
        f"k={k}",
        log2_at=lambda m: log2_comb_lower(m + nparts - 1, nparts - 1),
    )
    if not deltas:
        return ()  # nothing to fold, so nothing to scan
    parts = sorted(_subsets(k), key=lambda s: tuple(sorted(s)))
    # one indicator vector per distinct part, shared by every rectangle
    vector = functools.cache(lambda part: indicator(2 * k, part))
    candidates, examined = _residue_pass(n, k, parts, vector)

    best, witness = [0] * len(deltas), [None] * len(deltas)
    for sets, n0, n1 in candidates:
        for i, delta in enumerate(deltas):
            if n0 + n1 > best[i] and _max_advantage(n0, n1) >= delta:
                best[i], witness[i] = n0 + n1, sets
    denom = inst.valid_input_count()
    return tuple(
        ScanResult(delta, Fraction(total, denom), examined, w)
        for delta, total, w in zip(deltas, best, witness)
    )
