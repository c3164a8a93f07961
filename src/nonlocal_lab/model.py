"""Core domain types: correlation problems, local classical models, and the
three imperfection metrics (all-click efficiency, forbidden-outcome error,
total-variation error).

Conventions used throughout the package:

* inputs are tuples ``x`` with entries in ``{0..k-1}``, one entry per party;
* outcomes are tuples ``a`` with entries in ``{0..l-1}`` or ``None``, where
  ``None`` stands for a detector that produced no output (no click);
* target probabilities and every probability that comes from a classical
  model are exact (``fractions.Fraction`` or ``int``), so every figure is
  exact; floating point appears only for quantities that are irrational by
  nature (such as the per-party efficiency eta).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ArityMismatch, DivisionByZeroEfficiency, InvalidInput

Entry = Optional[int]
InputVector = tuple[int, ...]
OutcomeVector = tuple[Entry, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def all_click(values: Iterable[Entry]) -> bool:
    """True when no entry of an outcome vector is a missing click."""
    return all(v is not None for v in values)


def _is_outcome(a: object, n: int, l: int) -> bool:
    """Whether ``a`` is a tuple of ``n`` entries, each ``None`` or an int in
    ``{0..l-1}``."""
    return (
        type(a) is tuple
        and len(a) == n
        and all(v is None or (type(v) is int and 0 <= v < l) for v in a)
    )


def _is_input(x: object, n: int, k: int) -> bool:
    """Whether ``x`` is a tuple of ``n`` settings in ``{0..k-1}``."""
    return type(x) is tuple and len(x) == n and all(map(range(k).__contains__, x))


def _is_probability(p: object) -> bool:
    """Whether ``p`` is an exact probability entry: a nonnegative ``Fraction``
    or ``int`` (``bool`` subclasses ``int`` and is refused)."""
    exact = isinstance(p, Fraction) or (isinstance(p, int) and type(p) is not bool)
    return exact and p.numerator >= 0  # a Fraction's denominator is positive


@dataclass(frozen=True)
class CorrelationProblem:
    """A target joint conditional distribution plus an input distribution.

    ``mu`` is stored sparsely on its support; ``target`` is stored sparsely as
    ``x -> {outcome: probability}`` and missing outcomes carry probability 0.
    Outcomes with missing clicks conventionally carry target probability 0
    (the target describes an ideal, always-clicking scenario). Every target
    row is keyed by an input in ``{0..k-1}^n``, every entry is a nonnegative
    ``Fraction`` or ``int``, and every row, of a supported input or not, sums
    to exactly 1.
    """

    n: int
    k: int
    l: int
    mu: Mapping[InputVector, Fraction]
    target: Mapping[InputVector, Mapping[OutcomeVector, Fraction]]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.l < 1:
            raise ArityMismatch("n, k, l must all be positive")
        total = ZERO
        for x, w in self.mu.items():
            if not _is_input(x, self.n, self.k):
                raise ArityMismatch(f"input {x} outside {{0..{self.k - 1}}}^{self.n}")
            if w < 0:
                raise InvalidInput(f"negative input weight at {x}")
            total += w
        if total != 1:
            raise InvalidInput(f"input weights sum to {total}, expected 1")
        for x in self.target:
            if x not in self.mu and not _is_input(x, self.n, self.k):
                raise InvalidInput(
                    f"target row for {x!r} outside {{0..{self.k - 1}}}^{self.n}"
                )
        # each row object is checked once (rows are often shared), at the
        # first input naming it: supported inputs first, then every other row
        checked = set()
        for x in itertools.chain(self.support, self.target):
            row = self.target.get(x)
            if row is None:
                raise InvalidInput(f"no target distribution for supported input {x}")
            if id(row) in checked:
                continue
            checked.add(id(row))
            for a, p in row.items():
                if not _is_outcome(a, self.n, self.l):
                    raise InvalidInput(
                        f"target outcome {a!r} at {x} is not a length-{self.n} "
                        f"vector of None and {{0..{self.l - 1}}}"
                    )
                if not _is_probability(p):
                    raise InvalidInput(
                        f"target entry {p!r} for {a!r} at {x} is not a nonnegative "
                        "Fraction or int"
                    )
            if not _sums_to_one(list(row.values())):
                raise InvalidInput(f"target at {x} sums to {sum(row.values())}, expected 1")

    @functools.cached_property
    def support(self) -> tuple[InputVector, ...]:
        """Inputs with nonzero weight, in insertion order; computed once per
        problem (a cached property writes the instance dict, so it works on
        this frozen class, and it is not a field, so ``==`` ignores it)."""
        return tuple(x for x, w in self.mu.items() if w > 0)

    def mu_weight(self, x: InputVector) -> Fraction:
        return self.mu.get(x, ZERO)

    def target_prob(self, x: InputVector, a: OutcomeVector) -> Fraction:
        return self.target.get(x, {}).get(a, ZERO)

    def is_forbidden(self, x: InputVector, a: OutcomeVector) -> bool:
        """True when the all-click outcome ``a`` has exactly zero target mass.

        Forbidden-ness is defined by an exact zero of the target, never by a
        numeric threshold.
        """
        return self.target_prob(x, a) == 0


def uniform_problem(n: int, k: int, l: int = 2) -> CorrelationProblem:
    """Full-support problem: uniform inputs, uniform click-only targets."""
    inputs = list(itertools.product(range(k), repeat=n))
    w = Fraction(1, len(inputs))
    t = Fraction(1, l**n)
    row = {a: t for a in itertools.product(range(l), repeat=n)}
    return CorrelationProblem(
        n=n, k=k, l=l, mu={x: w for x in inputs}, target={x: row for x in inputs}
    )


@dataclass(frozen=True)
class DeterministicLhv:
    """One lookup table per party; entries may be ``None`` (no click).

    Every party's table must be a total function on ``{0..k-1}`` whose
    entries are ``None`` or nonnegative ints (``bool`` is refused).
    """

    tables: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        tables = tuple(map(tuple, self.tables))  # keeps tables that are tuples already
        object.__setattr__(self, "tables", tables)
        _check_lhv_tables(tables)

    @classmethod
    def _checked(cls, tables: tuple[tuple[Entry, ...], ...]) -> DeterministicLhv:
        """The model over ``tables``, a tuple of tuples that already passed
        :func:`_check_lhv_tables`, built without checking it again: the
        decoder checks each distinct table once, and the converter masks
        checked tables."""
        lhv = object.__new__(cls)
        object.__setattr__(lhv, "tables", tables)
        return lhv

    @property
    def n(self) -> int:
        return len(self.tables)

    @property
    def k(self) -> int:
        return len(self.tables[0])

    @property
    def is_click_only(self) -> bool:
        return all(v is not None for t in self.tables for v in t)

    def outputs(self, x: InputVector) -> OutcomeVector:
        return tuple(map(getitem, self.tables, x))

    def clicks_on(self, x: InputVector) -> bool:
        return all(t[v] is not None for t, v in zip(self.tables, x))


def check_output_alphabet(lhvs: Iterable[DeterministicLhv], l: int) -> None:
    """Raise ``InvalidInput`` unless every table entry is silent or lies in
    ``{0..l-1}``. One pass over the tables, not over (input, model) pairs."""
    _check_tables((t for lhv in lhvs for t in lhv.tables), l)


def _check_lhv_tables(
    tables: tuple[tuple[Entry, ...], ...], valid: Optional[set[int]] = None
) -> None:
    """Raise ``InvalidInput`` unless ``tables`` is a nonempty tuple of tables
    of one positive length whose entries are ``None`` or nonnegative ints.

    ``valid``, when given, holds the ids of table objects whose entries
    passed before, which the caller keeps alive; each table that passes is
    added. It is keyed on identity, never on value: ``(True, 1) == (1, 1)``,
    and only the second is a table.
    """
    if not tables:
        raise InvalidInput("at least one party required")
    k = len(tables[0])
    if k and valid and valid.issuperset(map(id, tables)) and all(map(k.__eq__, map(len, tables))):
        return  # every table passed before and the lengths agree
    for t in tables:
        if len(t) != k or k == 0:
            raise InvalidInput("party tables must share one input range")
        if valid is None or id(t) not in valid:
            for v in t:
                if v is not None and (type(v) is not int or v < 0):
                    raise InvalidInput("outputs must be None or nonnegative ints")
            if valid is not None:
                valid.add(id(t))


def _check_tables(tables: Iterable[tuple[Entry, ...]], l: int) -> None:
    for t in tables:
        for v in t:
            if v is not None and v >= l:
                raise InvalidInput(f"output {v} outside {{0..{l - 1}}}")


def _sums_to_one(
    weights: Sequence[Fraction], counts: Iterable[int] = itertools.repeat(1)
) -> bool:
    """Whether ``weights``, each taken ``counts`` times (once by default),
    sum to exactly 1, decided by one integer sum of the numerators scaled to
    the lcm of the denominators."""
    den = math.lcm(*(w.denominator for w in weights))
    return sum(w.numerator * (den // w.denominator) * c for w, c in zip(weights, counts)) == den


@dataclass(frozen=True)
class MixedLhv:
    """Probability distribution over deterministic local models."""

    components: tuple[tuple[DeterministicLhv, Fraction], ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise InvalidInput("a mixture needs at least one component")
        # components share models and weights: each distinct object is
        # checked once, and each distinct weight enters the sum once, times
        # the number of its components
        n, k = comps[0][0].n, comps[0][0].k
        models: set[int] = set()
        weights: dict[int, Fraction] = {}  # keyed on the ids of the given weights
        counts: dict[int, int] = {}
        converted = False
        for lhv, w in comps:
            if id(lhv) not in models:
                models.add(id(lhv))
                if len(lhv.tables) != n or len(lhv.tables[0]) != k:
                    raise ArityMismatch("all components must share (n, k)")
            if id(w) in counts:
                counts[id(w)] += 1
                continue
            counts[id(w)] = 1
            converted |= type(w) is not Fraction
            q = weights[id(w)] = w if type(w) is Fraction else Fraction(w)
            if q.numerator <= 0:  # the denominator is positive
                raise InvalidInput("component weights must be positive")
        if not _sums_to_one(list(weights.values()), counts.values()):
            raise InvalidInput("component weights must sum to 1")
        if converted:
            comps = tuple((lhv, weights[id(w)]) for lhv, w in comps)
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0][0].n

    @property
    def k(self) -> int:
        return self.components[0][0].k


@dataclass(frozen=True)
class ModelDistribution:
    """Induced conditional distribution of a classical model, exact rationals.

    ``probs[x][a]`` covers outcomes with and without missing clicks; rows sum
    to exactly 1 for every stored input.
    """

    probs: Mapping[InputVector, Mapping[OutcomeVector, Fraction]]

    def __post_init__(self) -> None:
        for x, row in self.probs.items():
            s = ZERO
            for a, p in row.items():
                if p < 0:
                    raise InvalidInput(f"negative probability at {x} -> {a}")
                s += p
            if s != 1:
                raise InvalidInput(f"distribution at {x} sums to {s}, expected 1")

    def prob(self, x: InputVector, a: OutcomeVector) -> Fraction:
        return self.probs.get(x, {}).get(a, ZERO)

    def click_row(self, x: InputVector) -> dict[OutcomeVector, Fraction]:
        return {a: p for a, p in self.probs.get(x, {}).items() if all_click(a)}


class Efficiency(NamedTuple):
    """All-click probability (exact) plus its n-th root (numeric)."""

    eta_n: Fraction
    eta: float
    n: int


class ModelMetrics(NamedTuple):
    """The three imperfection figures of a model on one problem."""

    eta_n: Fraction
    eta: float
    eps: Fraction
    eps_var: Fraction


def evaluate_mixed_lhv(m: MixedLhv, problem: CorrelationProblem) -> ModelDistribution:
    """Exact induced distribution: per input, each component adds its weight
    onto the outcome its tables produce."""
    if (m.n, m.k) != (problem.n, problem.k):
        raise ArityMismatch(
            f"model is ({m.n}, {m.k}) but problem is ({problem.n}, {problem.k})"
        )
    check_output_alphabet((lhv for lhv, _ in m.components), problem.l)
    probs: dict[InputVector, dict[OutcomeVector, Fraction]] = {}
    for x in problem.support:
        row: dict[OutcomeVector, Fraction] = {}
        for lhv, w in m.components:
            a = lhv.outputs(x)
            row[a] = row.get(a, ZERO) + w
        probs[x] = row
    return ModelDistribution(probs=probs)


def _eta_n(d: ModelDistribution, problem: CorrelationProblem) -> Fraction:
    acc = ZERO
    for x in problem.support:
        w = problem.mu_weight(x)
        for a, p in d.probs.get(x, {}).items():
            if all_click(a):
                acc += w * p
    return acc


def detection_efficiency(d: ModelDistribution, problem: CorrelationProblem) -> Efficiency:
    """Expected all-click probability under the input distribution.

    The exact value is the n-th power ``eta_n``; ``eta`` is its numeric n-th
    root (irrational in general).
    """
    eta_n = _eta_n(d, problem)
    return Efficiency(eta_n=eta_n, eta=float(eta_n) ** (1.0 / problem.n), n=problem.n)


def error_probability(d: ModelDistribution, problem: CorrelationProblem) -> Fraction:
    """Click-conditioned probability of an outcome the target forbids outright."""
    eta_n = _eta_n(d, problem)
    if eta_n == 0:
        raise DivisionByZeroEfficiency("no all-click events, error undefined")
    acc = ZERO
    for x in problem.support:
        w = problem.mu_weight(x)
        for a, p in d.probs.get(x, {}).items():
            if all_click(a) and problem.is_forbidden(x, a):
                acc += w * p
    return acc / eta_n


def total_variation_error(d: ModelDistribution, problem: CorrelationProblem) -> Fraction:
    """L1 distance between the target and the model's click mass, over eta_n:

        sum_x mu(x) sum_a |target(a|x) - P(a, all-click | x)| / eta_n

    with ``a`` ranging over click outcomes. The model term is not conditioned
    on clicking, so the figure is not bounded by 2 when eta_n < 1 (it is 1023
    for the converted n=5, k=4 full broadcast). Exact, as the target is.
    """
    eta_n = _eta_n(d, problem)
    if eta_n == 0:
        raise DivisionByZeroEfficiency("no all-click events, deviation undefined")
    acc = ZERO
    for x in problem.support:
        w = problem.mu_weight(x)
        model_row = d.click_row(x)
        target_row = problem.target.get(x, {})
        for a in set(model_row) | set(target_row):
            if not all_click(a):
                continue
            acc += w * abs(target_row.get(a, ZERO) - model_row.get(a, ZERO))
    return acc / eta_n


def mixed_lhv_metrics(m: MixedLhv, problem: CorrelationProblem) -> ModelMetrics:
    """All three metrics, visiting each component only where it clicks.

    A deterministic model clicks exactly on the rectangle of its per-party
    click sets, so components are grouped by that rectangle and each group
    adds its weights, as integer numerators over one denominator, only on
    the supported inputs inside it; a silent or unsupported rectangle costs
    nothing. The click rows are then scored by :func:`_score`. Agrees exactly
    with ``evaluate_mixed_lhv`` plus the separate metric functions.
    """
    return _score(*_click_rows(m, problem), problem)


def _click_rows(m: MixedLhv, problem: CorrelationProblem) -> tuple[dict, int]:
    """The click rows of :func:`mixed_lhv_metrics`: per supported input where
    the model clicks, its mass per click outcome as numerators over ``den``."""
    if (m.n, m.k) != (problem.n, problem.k):
        raise ArityMismatch(
            f"model is ({m.n}, {m.k}) but problem is ({problem.n}, {problem.k})"
        )
    # each distinct party table is checked and turned into its click set
    # once, each distinct weight object scaled once
    tables = dict.fromkeys(itertools.chain.from_iterable([lhv.tables for lhv, _ in m.components]))
    _check_tables(tables, problem.l)
    click_set = {t: tuple(v for v, e in enumerate(t) if e is not None) for t in tables}
    support = problem.support
    supported = set(support)
    # click masses are integer numerators over the lcm of the component
    # weights' denominators
    weights = {id(w): w for _, w in m.components}
    den = math.lcm(*(w.denominator for w in weights.values()))
    scaled_weight = {key: w.numerator * (den // w.denominator) for key, w in weights.items()}
    groups: dict[tuple[tuple[int, ...], ...], list[tuple[DeterministicLhv, int]]] = {}
    for lhv, w in m.components:
        rect = tuple(map(click_set.__getitem__, lhv.tables))
        groups.setdefault(rect, []).append((lhv, scaled_weight[id(w)]))
    click_rows: dict[InputVector, dict[OutcomeVector, int]] = {}
    for rect, comps in groups.items():
        # an empty click set makes the product empty: nothing to visit
        if math.prod(map(len, rect)) <= len(support):
            inside = [x for x in itertools.product(*rect) if x in supported]
        else:
            inside = [x for x in support if all(v in c for v, c in zip(x, rect))]
        for x in inside:
            row = click_rows.setdefault(x, {})
            for lhv, w in comps:
                a = lhv.outputs(x)
                row[a] = row.get(a, 0) + w
    return click_rows, den


def _score(
    click_rows: Mapping[InputVector, Mapping[OutcomeVector, int]],
    den: int,
    problem: CorrelationProblem,
) -> ModelMetrics:
    """The three figures of a model whose mass on click outcome ``a`` at
    supported input ``x`` is ``click_rows[x][a] / den`` (inputs where the
    model never clicks may be left out), with

        eta_n   = sum_x mu(x) P(all-click | x)
        eps     = sum_x mu(x) sum_{a forbidden} P(a, all-click | x) / eta_n
        eps_var = sum_x mu(x) sum_a |target(a|x) - P(a, all-click | x)| / eta_n

    (``a`` ranges over click outcomes). ``eps_var`` compares the target with
    the unconditioned click mass, so it is not bounded by 2 when eta_n < 1.
    One pass over the support sums all three in integer numerators; each
    figure is one ``Fraction`` built at the end.
    """
    mu = problem.mu
    support = problem.support
    # input weights are integer numerators over mu_den
    mu_den = math.lcm(*(mu[x].denominator for x in support))
    # eps_var * eta_n = sum_x mu(x) sum_a target(a|x) plus, over the clicked
    # (x, a), mu(x) (|target(a|x) - P(a, all-click|x)| - target(a|x)); the
    # first sum is taken once per distinct target row object. A row is
    # scaled once to integer numerators over tden, the lcm of its click
    # entries' denominators, and multiplied by den, so each clicked term is
    # the int |t - num*tden| - t over den*tden
    # id -> [scaled click row, tden, weight, deviation]
    rows: dict[int, list] = {}
    click_num = 0
    wrong_num = 0
    for x in support:
        wx = mu[x]
        w = wx.numerator * (mu_den // wx.denominator)
        target_row = problem.target[x]
        entry = rows.get(id(target_row))
        if entry is None:
            clicked = [(a, p) for a, p in target_row.items() if all_click(a)]
            tden = math.lcm(*(p.denominator for _, p in clicked))
            scaled = {a: p.numerator * (tden // p.denominator) * den for a, p in clicked}
            entry = rows[id(target_row)] = [scaled, tden, 0, 0]
        entry[2] += w
        click_row = click_rows.get(x)
        if not click_row:
            continue
        scaled, tden = entry[0], entry[1]
        clicks = 0
        wrong = 0
        dev = 0
        for a, num in click_row.items():
            t = scaled.get(a, 0)
            clicks += num
            if not t:
                wrong += num
            dev += abs(t - num * tden) - t
        entry[3] += w * dev
        click_num += w * clicks
        wrong_num += w * wrong
    if click_num == 0:
        raise DivisionByZeroEfficiency("no all-click events, metrics undefined")
    eta_n = Fraction(click_num, mu_den * den)
    # each row's share is an int over mu_den * den * tden; over the lcm of
    # the tdens they add up to one numerator, and dividing by eta_n cancels
    # mu_den * den
    tlcm = math.lcm(*(tden for _, tden, _, _ in rows.values()))
    var_num = sum(
        (weight * sum(scaled.values()) + dev) * (tlcm // tden)
        for scaled, tden, weight, dev in rows.values()
    )
    return ModelMetrics(
        eta_n=eta_n,
        eta=float(eta_n) ** (1.0 / problem.n),
        eps=Fraction(wrong_num, click_num),
        eps_var=Fraction(var_num, tlcm * click_num),
    )
