"""The n-party GHZ measurement scenario and the correlation problem it
induces.

Each party holds one qubit of the state (|0...0> + |1...1>)/sqrt(2) and, on
input ``x_i``, measures in the basis (|0> +- exp(i*pi*x_i/k)|1>)/sqrt(2),
reporting 0 for the "+" projector and 1 for the "-" projector. An input
vector is valid when its entries sum to 0 mod k; on valid inputs the parity
of the outputs is forced to a bit computable from the input sum alone, which
is what the classical models in the rest of the package try to reproduce.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import orbits
from .cyclic import indicator, power
from .errors import (
    DEFAULT_BUDGET,
    CrossCheckMismatch,
    InvalidInput,
    LengthMismatch,
    check_budget,
    log2_comb_lower,
)
from .model import CorrelationProblem, DeterministicLhv, InputVector, OutcomeVector, ZERO
from .protocol import Edge, Leaf, MixedProtocol, Node, ProtocolTree, SHARED

#: outcomes per party: each qubit measurement reports one bit
OUTPUTS = 2

#: numeric tolerance tying the amplitude computation to its closed form
AMPLITUDE_TOLERANCE = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: the direct route's overlaps shrink by 1/sqrt(2) per party; below
#: 2**-_RESCALE_BITS both are scaled up by 2**_RESCALE_BITS, which is exact,
#: so they never underflow
_RESCALE_BITS = 512
_RESCALE_BELOW = math.ldexp(1.0, -_RESCALE_BITS)
_RESCALE_BY = math.ldexp(1.0, _RESCALE_BITS)


@dataclass(frozen=True)
class GhzInstance:
    """Scenario parameters: ``n`` parties, ``k`` measurement settings each."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidInput(f"need at least 2 parties, got n={self.n}")
        if self.k < 2:
            raise InvalidInput(f"need at least 2 settings, got k={self.k}")

    def valid_input_count(self) -> int:
        return self.k ** (self.n - 1)


def default_k(n: int) -> int:
    """Experiment default: ceil(n**(1/6)) rounded up to a power of two."""
    m = 1
    while m**6 < n:
        m += 1
    p = 1
    while p < m:
        p *= 2
    return max(p, 2)


@dataclass(frozen=True)
class PhaseMeasurement:
    """Equatorial qubit basis selected by one party's setting."""

    setting: int
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.setting < self.k:
            raise InvalidInput(f"setting {self.setting} outside 0..{self.k - 1}")

    @property
    def phase(self) -> float:
        """Basis phase, always in [0, pi)."""
        return math.pi * self.setting / self.k

    def bra(self, outcome: int) -> tuple[complex, complex]:
        """Conjugated overlaps (<phi_outcome|0>, <phi_outcome|1>)."""
        sign = -1.0 if outcome else 1.0
        return (_INV_SQRT2 + 0j, sign * cmath.exp(-1j * self.phase) * _INV_SQRT2)


def _check_input(inst: GhzInstance, x: Sequence[int]) -> None:
    if len(x) != inst.n:
        raise LengthMismatch(f"input has {len(x)} entries, expected {inst.n}")
    if any(not (0 <= v < inst.k) for v in x):
        raise InvalidInput(f"input {tuple(x)} outside 0..{inst.k - 1}")


def is_valid_input(inst: GhzInstance, x: Sequence[int]) -> bool:
    """True when the entries of ``x`` sum to 0 mod k."""
    _check_input(inst, x)
    return sum(x) % inst.k == 0


def promise_bit(inst: GhzInstance, x: Sequence[int]) -> int:
    """The bit ((sum x_i) mod 2k)/k; defined exactly on valid inputs."""
    if not is_valid_input(inst, x):
        raise InvalidInput(f"{tuple(x)} violates the sum-to-zero promise")
    return (sum(x) % (2 * inst.k)) // inst.k


def _check_click_outcome(inst: GhzInstance, a: Sequence[int]) -> None:
    if len(a) != inst.n:
        raise LengthMismatch(f"outcome has {len(a)} entries, expected {inst.n}")
    if any(v not in (0, 1) for v in a):
        raise InvalidInput(f"outcome {tuple(a)} is not a click-only bit vector")


def target_probability(inst: GhzInstance, x: Sequence[int], a: Sequence[int]) -> Fraction:
    """Ideal correlation: 1/2**(n-1) when the output parity matches the
    promise bit of ``x``, and exactly 0 otherwise."""
    _check_click_outcome(inst, a)
    bit = promise_bit(inst, x)
    if sum(a) % 2 == bit:
        return Fraction(1, 2 ** (inst.n - 1))
    return ZERO


@functools.lru_cache(maxsize=None)
def _phase_table(k: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(-1j * math.pi * v / k) for v in range(k))


def quantum_probability(
    inst: GhzInstance, x: Sequence[int], a: Sequence[int], scaled: bool = False
) -> float:
    """Born probability of click outcome ``a`` on input ``x``, or with
    ``scaled`` that probability times 2**(n-1), the scale on which the
    parity target is 0 or 1 and which stays representable at every n.

    Computed as an explicit amplitude inner product against the two nonzero
    amplitudes of the shared state (per-party overlap products, never a full
    2**n state vector), then checked against the cosine closed form on the
    2**(n-1) scale, so the check keeps its meaning when the probability
    itself is far below the tolerance.
    """
    _check_input(inst, x)
    _check_click_outcome(inst, a)
    overlap_zero = 1 + 0j
    overlap_one = 1 + 0j
    shift = 0  # both overlaps are held times 2**shift
    for xi, ai in zip(x, a):
        b0, b1 = PhaseMeasurement(setting=xi, k=inst.k).bra(ai)
        overlap_zero *= b0
        overlap_one *= b1
        if overlap_zero.real < _RESCALE_BELOW:
            overlap_zero *= _RESCALE_BY
            overlap_one *= _RESCALE_BY
            shift += _RESCALE_BITS
    amp = (overlap_zero + overlap_one) * _INV_SQRT2
    held = amp.real * amp.real + amp.imag * amp.imag  # the probability times 4**shift
    relative = math.ldexp(held, inst.n - 1 - 2 * shift)
    closed = (1.0 + math.cos(math.pi * (sum(a) - sum(x) / inst.k))) / 2
    if abs(relative - closed) > AMPLITUDE_TOLERANCE:
        raise CrossCheckMismatch(
            f"amplitude {relative} differs from the closed form {closed} (times 2^{inst.n - 1})"
        )
    return relative if scaled else math.ldexp(held, -2 * shift)


def valid_inputs(inst: GhzInstance) -> Iterator[InputVector]:
    """All inputs satisfying the promise; the last entry balances the sum."""
    n, k = inst.n, inst.k
    for head in itertools.product(range(k), repeat=n - 1):
        yield head + ((-sum(head)) % k,)


def check_input_budget(inst: GhzInstance, budget: int) -> int:
    """The k**(n-1) valid inputs of ``inst``, refused over ``budget``."""
    k = inst.k
    return check_budget(
        lambda m: k ** (m - 1), inst.n, budget, "valid inputs", f"{k}^{inst.n - 1}", f"k={k}"
    )


def check_orbit_budget(inst: GhzInstance, budget: int) -> int:
    """The work of :func:`equivalence_max_deviation`, C(n+k-1, k-1)
    multisets times n overlap factors, refused over ``budget``; a count far
    past the budget is refused without building the binomial."""
    n, k = inst.n, inst.k
    return check_budget(
        lambda m: orbits.orbit_pass_size(m, k),
        n,
        budget,
        "overlap factors",
        f"C({n + k - 1},{k - 1})*{n}",
        f"k={k}",
        log2_at=lambda m: log2_comb_lower(m + k - 1, k - 1) + math.log2(m),
    )


def ghz_problem(inst: GhzInstance, budget: int = DEFAULT_BUDGET) -> CorrelationProblem:
    """Uniform distribution on valid inputs with the ideal parity target.

    Outcomes with missing clicks carry target probability 0 (sparse storage).
    Refuses more valid inputs than ``budget`` before building any.
    """
    count = check_input_budget(inst, budget)
    n = inst.n
    weight = Fraction(1, count)
    p_allowed = Fraction(1, 2 ** (n - 1))
    rows = (
        {a: p_allowed for a in itertools.product(range(2), repeat=n) if sum(a) % 2 == 0},
        {a: p_allowed for a in itertools.product(range(2), repeat=n) if sum(a) % 2 == 1},
    )
    mu: dict[InputVector, Fraction] = {}
    target: dict[InputVector, dict[OutcomeVector, Fraction]] = {}
    for x in valid_inputs(inst):
        mu[x] = weight
        target[x] = rows[(sum(x) % (2 * inst.k)) // inst.k]
    return CorrelationProblem(n=n, k=inst.k, l=OUTPUTS, mu=mu, target=target)


class Deviation(NamedTuple):
    """Largest |quantum - target| over the valid inputs and click outcomes,
    as probabilities and on the 2**(n-1) scale, where the target is 0 or 1.
    Only the second decides: no target exceeds 2**-(n-1), below the
    tolerance from n=41, so there even an all-zero amplitude passes the
    first."""

    absolute: float
    relative: float


def equivalence_max_deviation(inst: GhzInstance, cross_check_stride: int = 257) -> Deviation:
    """Largest deviation of the Born probabilities from the parity target.

    Both depend on an input only up to permuting parties, so one overlap
    product per valid-input orbit, over its sorted representative, stands
    for every member. An outcome enters the amplitude only through its
    parity, the sign of the |1...1> branch, so that product gives one
    probability per parity class. The relative figure comes from the
    unit-modulus product before the 2**(-n/2) scale, so nothing underflows.
    The first (orbit, parity) pair and every ``cross_check_stride``-th after
    it are re-derived through :func:`quantum_probability`, on the reversed
    representative and an outcome of that parity, so the direct route sees
    party orders other than the sorted one.
    """
    n, k = inst.n, inst.k
    phases = _phase_table(k)
    scale = _INV_SQRT2 ** n
    p_allowed = math.ldexp(1.0, 1 - n)
    worst = worst_relative = 0.0
    seen = 0
    for rep, _ in orbits.valid_input_orbits(n, k):
        unit = 1 + 0j
        for xi in rep:
            unit *= phases[xi]
        overlap_one = unit * scale
        bit = (sum(rep) % (2 * k)) // k
        for parity, sign in ((0, 1.0), (1, -1.0)):
            amp = (scale + sign * overlap_one) * _INV_SQRT2
            p = amp.real * amp.real + amp.imag * amp.imag
            allowed = parity == bit
            worst = max(worst, abs(p - (p_allowed if allowed else 0.0)))
            half = (1.0 + sign * unit) * 0.5  # amp times 2**((n-1)/2)
            relative = half.real * half.real + half.imag * half.imag
            worst_relative = max(worst_relative, abs(relative - (1.0 if allowed else 0.0)))
            if seen % cross_check_stride == 0:  # the first pair, then every stride-th
                x = rep[::-1]
                head = tuple(v & 1 for v in x[:-1])  # so the outcome varies with x
                a = head + ((sum(head) + parity) % 2,)
                direct = quantum_probability(inst, x, a, scaled=True)
                if abs(direct - relative) > AMPLITUDE_TOLERANCE:
                    raise CrossCheckMismatch(
                        f"orbit product {relative} differs from the direct {direct} at {x}"
                        f" (times 2^{n - 1})"
                    )
            seen += 1
    return Deviation(worst, worst_relative)


def _full_sum_counts(parties: int, modulus: int, k: int) -> list[int]:
    """Counts of (sum of ``parties`` free settings) mod ``modulus``."""
    return power(indicator(modulus, range(k)), parties)


def _majority_bit(inst: GhzInstance, known: int, free_counts: list[int]) -> tuple[int, int]:
    """Best constant parity guess given the known part of the input sum.

    Returns (bit, number of valid completions it gets wrong).
    """
    k = inst.k
    n0 = free_counts[(-known) % (2 * k)]
    n1 = free_counts[(k - known) % (2 * k)]
    return (0, n1) if n0 >= n1 else (1, n0)


@dataclass(frozen=True)
class PrefixPoint:
    """Figures of one broadcast-prefix strategy (before/after conversion)."""

    prefix: int
    cost: int
    eps: Fraction
    eta_n_converted: Fraction


def broadcast_prefix_stats(inst: GhzInstance, prefix: int) -> PrefixPoint:
    """Exact error of the strategy where the first ``prefix`` parties
    broadcast their settings and the best-informed party answers with the
    majority parity consistent with everything it knows.

    For ``prefix < n`` the answerer is party ``prefix``, which knows the
    broadcast settings plus its own; for ``prefix = n`` it is party 0. The
    converted detector model clicks with probability 2**-cost.
    """
    n, k = inst.n, inst.k
    if not 0 <= prefix <= n:
        raise InvalidInput(f"prefix {prefix} outside 0..{n}")
    bits = prefix * math.ceil(math.log2(k))
    known = min(prefix + 1, n)  # the answerer's own setting counts too
    pre_counts = _full_sum_counts(known, 2 * k, k)
    suffix_counts = _full_sum_counts(n - known, 2 * k, k)
    wrong = 0
    for sigma, c in enumerate(pre_counts):
        if c:
            _, misses = _majority_bit(inst, sigma, suffix_counts)
            wrong += c * misses
    return PrefixPoint(
        prefix=prefix,
        cost=bits,
        eps=Fraction(wrong, inst.valid_input_count()),
        eta_n_converted=Fraction(1, 2**bits),
    )


def _chain_tree(inst: GhzInstance, prefix: int, leaf_tables) -> ProtocolTree:
    """Chain of k-way splits for parties 0..prefix-1.

    Below the first ``level`` splits, the subtree depends on the settings
    above it only through their sum mod 2k, so it is built once per
    (level, residue) and shared: at most (prefix+1)*2k distinct nodes where
    the expanded tree has k**prefix leaves. Leaf tables come from a callback
    on that residue. Built from the leaves up, over the residues the sums of
    ``level`` settings can reach.
    """
    k = inst.k
    blocks = [frozenset({v}) for v in range(k)]

    def reach(level: int) -> range:
        return range(min(2 * k, level * (k - 1) + 1))

    layer = {s: Leaf(lhv=DeterministicLhv(tables=leaf_tables(s))) for s in reach(prefix)}
    for level in reversed(range(prefix)):
        layer = {
            s: Node(
                party=level,
                edges=tuple(
                    Edge(inputs=b, child=layer[(s + v) % (2 * k)]) for v, b in enumerate(blocks)
                ),
            )
            for s in reach(level)
        }
    return ProtocolTree(n=inst.n, k=k, root=layer[0])


def broadcast_prefix_strategy(inst: GhzInstance, prefix: int) -> ProtocolTree:
    """The tree of :func:`broadcast_prefix_stats` (same leaf rule), built
    as a DAG with one subtree per (level, setting sum mod 2k)."""
    n, k = inst.n, inst.k
    if not 0 <= prefix <= n:
        raise InvalidInput(f"prefix {prefix} outside 0..{n}")
    zeros = tuple(0 for _ in range(k))
    answerer = prefix if prefix < n else 0
    # when everyone broadcasts, the answerer's own setting is already in the head
    own = range(k) if prefix < n else zeros
    suffix_counts = _full_sum_counts(n - min(prefix + 1, n), 2 * k, k)
    majority = [_majority_bit(inst, sigma, suffix_counts)[0] for sigma in range(2 * k)]

    def leaf_tables(sigma: int):
        guesses = tuple(majority[(sigma + v) % (2 * k)] for v in own)
        return tuple(guesses if i == answerer else zeros for i in range(n))

    return _chain_tree(inst, prefix, leaf_tables)


def broadcast_strategy(inst: GhzInstance) -> ProtocolTree:
    """Every party broadcasts its setting; party 0 answers the forced parity.

    Costs n*ceil(log2 k) bits and makes no forbidden outcome on the induced
    problem (each leaf pins the whole input, so the parity is exact).
    """
    return broadcast_prefix_strategy(inst, inst.n)


def broadcast_strategy_mixed(inst: GhzInstance) -> MixedProtocol:
    """Shared-randomness version reproducing the ideal target exactly.

    A uniformly shared bit vector r makes parties 1..n-1 output r_i while
    party 0 absorbs their parity, so outcomes are uniform over the allowed
    parity class.
    """
    n, k = inst.n, inst.k
    zeros_row = _full_sum_counts(0, 2 * k, k)
    bits = [_majority_bit(inst, sigma, zeros_row)[0] for sigma in range(2 * k)]
    # the constant tables, shared by every leaf of every component
    constant = tuple(tuple(b for _ in range(k)) for b in range(2))
    weight = Fraction(1, 2 ** (n - 1))
    components = []
    for r in itertools.product(range(2), repeat=n - 1):
        flip = sum(r) % 2
        rest = tuple(constant[ri] for ri in r)

        def leaf_tables(sigma: int, flip=flip, rest=rest):
            return (constant[bits[sigma] ^ flip],) + rest

        components.append((_chain_tree(inst, n, leaf_tables), weight))
    return MixedProtocol(components=tuple(components), flavor=SHARED)
