"""Independent routes to every verdict the benchmark checks.

Each function here recomputes a figure the CLI reports without calling the
code path that produced it: binomial closed forms, a residue-vector dynamic
program in place of the rectangle enumeration, a tree walk over the JSON
file in place of ``protocol.execute``, and LP vertex enumeration in place of
the simplex. Where the repository keeps a slow path as a reference
(``model.evaluate_mixed_lhv`` with the separate metric functions), that path
is used. Results are cached per parameter set, because the benchmark repeats
request shapes across rounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------- helpers


def valid_inputs(n: int, k: int) -> list[tuple[int, ...]]:
    """Inputs whose entries sum to 0 mod k (the GHZ promise)."""
    return [
        head + ((-sum(head)) % k,) for head in itertools.product(range(k), repeat=n - 1)
    ]


def promise_bit(x: tuple[int, ...], k: int) -> int:
    return (sum(x) % (2 * k)) // k


def conv(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution of two count vectors of equal length."""
    m = len(a)
    out = [0] * m
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % m] += ai * bj
    return out


def indicator(values, m: int) -> list[int]:
    out = [0] * m
    for v in values:
        out[v % m] += 1
    return out


# ---------------------------------------------------------------- cyclic sums


def _kronecker_mul(a: list[int], b: list[int]) -> list[int]:
    """Cyclic product of two nonnegative count vectors by packing each into
    one integer, so CPython's big-integer multiply does the convolution."""
    m = len(a)
    width = (sum(a) * sum(b)).bit_length() + 1
    pa = 0
    for c in reversed(a):
        pa = (pa << width) | c
    pb = 0
    for c in reversed(b):
        pb = (pb << width) | c
    prod = pa * pb
    mask = (1 << width) - 1
    out = [0] * m
    for i in range(2 * m - 1):
        out[i % m] += (prod >> (width * i)) & mask
    return out


def _power(vec: list[int], e: int) -> list[int]:
    result = None
    while e:
        if e & 1:
            result = vec if result is None else _kronecker_mul(result, vec)
        e >>= 1
        if e:
            vec = _kronecker_mul(vec, vec)
    return result


def cyclic_product(vectors: list[list[int]]) -> list[int]:
    """Product of many count vectors over Z_m: identical factors are raised
    to their multiplicity by squaring, the rest multiplied in a balanced
    product tree."""
    groups = Counter(tuple(v) for v in vectors)
    layer = [_power(list(v), e) for v, e in groups.items()]
    while len(layer) > 1:
        nxt = [_kronecker_mul(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def subgroup_bias(mult: list[int], generator: int):
    """max over occupied x and nonzero subgroup steps g of mult(x)/mult(x+g),
    minus one; infinity when an occupied element faces an empty one."""
    t = len(mult)
    step = math.gcd(generator, t) if generator else t
    worst = Fraction(1)
    for x, mx in enumerate(mult):
        if not mx:
            continue
        for g in range(step, t, step):
            my = mult[(x + g) % t]
            if my == 0:
                return math.inf
            worst = max(worst, Fraction(mx, my))
    return worst - 1


def _within_bound(bias, t: int, r: int) -> bool:
    """bias <= 4 T^(3/2) / sqrt(r), decided in squared form."""
    if bias == math.inf:
        return False
    return bias <= 0 or bias * bias * r <= 16 * t**3


def addition_expected(t: int, general_sets, pair_sets) -> dict:
    """Expected ``addition`` report fields for the given drawn subsets."""
    r = len(general_sets)
    total = cyclic_product([indicator(set(s), t) for s in general_sets])
    bias = subgroup_bias(total, t // 2)
    diffs = [(max(s) - min(s)) % t for s in pair_sets]
    tally: dict[int, int] = {}
    for b in diffs:
        tally[b] = tally.get(b, 0) + 1
    majority = max(tally, key=lambda b: (tally[b], -b))
    pair_total = cyclic_product([indicator((0, b), t) for b in diffs])
    pair_bias = subgroup_bias(pair_total, majority)
    bound = 4.0 * t**1.5 / math.sqrt(r)
    general_ok = _within_bound(bias, t, r)
    pairs_ok = _within_bound(pair_bias, t, len(pair_sets))
    return {
        ("addition_theorem", "bias"): bias,
        ("addition_theorem", "bound"): bound,
        ("addition_theorem", "subgroup"): {"modulus": t, "generator": t // 2},
        ("addition_theorem", "passed"): general_ok,
        ("size2_sets", "bias"): pair_bias,
        ("size2_sets", "bound"): 4.0 * t**1.5 / math.sqrt(len(pair_sets)),
        ("size2_sets", "majority_difference"): majority,
        ("size2_sets", "majority_count"): tally[majority],
        ("size2_sets", "subgroup"): {"modulus": t, "generator": majority},
        ("size2_sets", "passed"): pairs_ok,
        ("passed",): general_ok and pairs_ok,
    }


# ---------------------------------------------------------------- rectangles


@functools.lru_cache(maxsize=None)
def rectangle_vectors(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Residue-count vectors mod 2k of all rectangles, with how many ordered
    rectangles share each vector (a layered DP over parties)."""
    m = 2 * k
    parts = [
        indicator(s, m)
        for size in range(1, k + 1)
        for s in itertools.combinations(range(k), size)
    ]
    layer = {tuple([1] + [0] * (m - 1)): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for vec, count in layer.items():
            for part in parts:
                key = tuple(conv(list(vec), part))
                nxt[key] = nxt.get(key, 0) + count
        layer = nxt
    return layer


@functools.lru_cache(maxsize=None)
def rect_cap(n: int, k: int, delta: Fraction) -> Fraction:
    """Largest input weight of a rectangle with some advantage >= delta."""
    best = Fraction(0)
    for vec in rectangle_vectors(n, k):
        n0, n1 = vec[0], vec[k]
        if n0 + n1 and Fraction(max(n0, n1), n0 + n1) >= delta:
            best = max(best, Fraction(n0 + n1, k ** (n - 1)))
    return best


def nonempty_rectangles(n: int, k: int) -> int:
    """Rectangles of the full lattice that contain a valid input."""
    return sum(c for vec, c in rectangle_vectors(n, k).items() if vec[0] + vec[k])


def witness_ok(n: int, k: int, delta: Fraction, r_cap: Fraction, witness) -> bool:
    """The reported witness rectangle has the cap's weight and advantage."""
    if witness is None:
        return r_cap == 0
    if len(witness) != n or any(not part for part in witness):
        return False
    vec = [1] + [0] * (2 * k - 1)
    for part in witness:
        vec = conv(vec, indicator(part, 2 * k))
    n0, n1 = vec[0], vec[k]
    return (
        n0 + n1 > 0
        and Fraction(n0 + n1, k ** (n - 1)) == r_cap
        and Fraction(max(n0, n1), n0 + n1) >= delta
    )


def rect_scan_expected(n: int, k: int, deltas: list[Fraction], budget: int) -> dict:
    expected: dict = {("passed",): True, ("advantage_bias_relation", "all_passed"): True}
    for i, d in enumerate(deltas):
        cap = rect_cap(n, k, d)
        expected[("scans", i, "delta")] = d
        expected[("scans", i, "r_cap")] = cap
        expected[("scans", i, "exact")] = True
        expected[("scans", i, "witness")] = functools.partial(witness_ok, n, k, d, cap)
    if (2**k - 1) ** n <= min(budget, 4096):
        checked = nonempty_rectangles(n, k)
        expected[("advantage_bias_relation", "checked")] = checked
        expected[("stats_csv",)] = lambda text: text.count("\n") == checked + 1
    else:
        expected[("advantage_bias_relation", "checked")] = 0
        expected[("stats_csv",)] = None
    return expected


# ---------------------------------------------------------------- broadcast prefix (k = 2)


def _binomial_mod4(m: int, c: int) -> int:
    """Number of m-bit strings whose weight is congruent to c mod 4."""
    return sum(math.comb(m, j) for j in range(c % 4, m + 1, 4))


@functools.lru_cache(maxsize=None)
def prefix_error_k2(n: int, prefix: int) -> Fraction:
    """Error of the broadcast-prefix strategy at k = 2 by binomial sums.

    The answerer knows ``min(prefix + 1, n)`` settings and guesses the
    majority parity over the remaining free settings.
    """
    known = min(prefix + 1, n)
    free = n - known
    wrong = 0
    for sigma in range(4):
        ways = _binomial_mod4(known, sigma)
        if ways:
            wrong += ways * min(
                _binomial_mod4(free, -sigma), _binomial_mod4(free, 2 - sigma)
            )
    return Fraction(wrong, 2 ** (n - 1))


# ---------------------------------------------------------------- optimal classical figures


def _click_patterns(n: int, k: int) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """Support, and the least forbidden-outcome count for each nonempty set
    of support inputs on which a silent-allowed strategy clicks (bitmask)."""
    support = valid_inputs(n, k)
    best: dict[int, int] = {}
    for tables in itertools.product(itertools.product((0, 1, None), repeat=k), repeat=n):
        mask = 0
        errors = 0
        for idx, x in enumerate(support):
            a = [tables[i][x[i]] for i in range(n)]
            if None not in a:
                mask |= 1 << idx
                errors += sum(a) % 2 != promise_bit(x, k)
        if mask and errors < best.get(mask, len(support) + 1):
            best[mask] = errors
    return support, best


@functools.lru_cache(maxsize=None)
def best_deterministic_error(n: int, k: int) -> Fraction:
    """Least error of a click-only deterministic strategy, by enumeration."""
    support = valid_inputs(n, k)
    best = len(support)
    for tables in itertools.product(itertools.product((0, 1), repeat=k), repeat=n):
        errors = sum(
            sum(tables[i][x[i]] for i in range(n)) % 2 != promise_bit(x, k) for x in support
        )
        best = min(best, errors)
    return Fraction(best, len(support))


def _solve(matrix: list[list[Fraction]], rhs: list[list[Fraction]]):
    """Gauss-Jordan elimination; None when the matrix is singular."""
    size = len(matrix)
    rows = [list(matrix[i]) + [r[i] for r in rhs] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [[rows[i][size + j] for i in range(size)] for j in range(len(rhs))]


@functools.lru_cache(maxsize=None)
def _lp_vertices(n: int, k: int):
    """Basic solutions of the scaled LP  min sum(lam)  subject to
    sum_{P contains x} lam_P = 1 for every input x and
    sum lam_P * errors_P + slack = eps * |support|.

    This is the CLI's LP divided through by the all-click probability q
    (lam = weight / q): the all-silent strategy absorbs whatever weight the
    others leave, and of the strategies that click on the same inputs only
    the one with the fewest errors can matter. Each basis gives
    lam = y0 + eps * y1, so one enumeration serves every error budget. The
    optimum all-click probability is 1 / min sum(lam).
    """
    support, patterns = _click_patterns(n, k)
    size = len(support) + 1
    columns = []
    for mask, errors in patterns.items():
        col = [Fraction((mask >> i) & 1) for i in range(len(support))] + [Fraction(errors)]
        columns.append((col, True))
    columns.append(([Fraction(0)] * len(support) + [Fraction(1)], False))
    b0 = [Fraction(1)] * len(support) + [Fraction(0)]
    b1 = [Fraction(0)] * len(support) + [Fraction(len(support))]
    vertices = []
    for basis in itertools.combinations(range(len(columns)), size):
        matrix = [[columns[j][0][i] for j in basis] for i in range(size)]
        solved = _solve(matrix, [b0, b1])
        if solved is None:
            continue
        y0, y1 = solved
        counted = [columns[j][1] for j in basis]
        vertices.append((y0, y1, counted))
    return vertices


@functools.lru_cache(maxsize=None)
def eta_star(n: int, k: int, eps: Fraction) -> Fraction:
    """Largest input-independent all-click probability at error <= eps."""
    best: Optional[Fraction] = None
    for y0, y1, counted in _lp_vertices(n, k):
        lam = [a + eps * b for a, b in zip(y0, y1)]
        if min(lam) < 0:
            continue
        total = sum(v for v, c in zip(lam, counted) if c)
        if best is None or total < best:
            best = total
    return 1 / best


def search_expected(n: int, k: int, eps: Fraction) -> dict:
    return {
        ("best_deterministic_error", "optimum"): best_deterministic_error(n, k),
        ("eta_star_lp", "optimum"): eta_star(n, k, eps),
        ("witnesses_recheck",): True,
        ("passed",): True,
    }


def tradeoff_expected(
    n: int, k: int, eps_grid: list[Fraction], deltas: list[Fraction]
) -> dict:
    """Expected ``tradeoff`` table at k = 2 with the default bit grid."""
    if k != 2:
        raise ValueError("the tradeoff oracle covers k = 2 only")
    caps = [rect_cap(n, k, d) for d in deltas]
    prefix = [(j, prefix_error_k2(n, j)) for j in range(n + 1)]
    lp_ok = 3 ** (n * k) <= 4096
    expected: dict = {("passed",): True}
    for i, (d, cap) in enumerate(zip(deltas, caps)):
        expected[("scans", i, "delta")] = d
        expected[("scans", i, "r_cap")] = cap
    row = 0
    for c in range(n + 1):
        for eps in eps_grid:
            achievable = max(
                (Fraction(1, 2**j) for j, e in prefix if j <= c and e <= eps), default=None
            )
            if lp_ok:
                lp = eta_star(n, k, eps)
                achievable = lp if achievable is None else max(achievable, lp)
            bounds = [
                2**c * 2**n * cap / (1 - eps / (1 - d))
                for d, cap in zip(deltas, caps)
                if eps < 1 - d
            ]
            bound = min(min(bounds), Fraction(1)) if bounds else None
            expected[("rows", row, "c")] = c
            expected[("rows", row, "eps")] = eps
            expected[("rows", row, "achievable_eta_n")] = achievable
            expected[("rows", row, "bound_eta_n")] = bound
            expected[("rows", row, "consistent")] = True
            row += 1
    expected[("rows",)] = lambda rows: len(rows) == row
    return expected


# ---------------------------------------------------------------- protocols and models


def _tree_cost(node: dict) -> int:
    if "leaf" in node:
        return 0
    edges = node["node"]["edges"]
    charge = math.ceil(math.log2(len(edges))) if len(edges) > 1 else 0
    return charge + max(_tree_cost(e["child"]) for e in edges)


def _tree_outcome(node: dict, x: tuple[int, ...]) -> tuple:
    while "node" in node:
        inner = node["node"]
        node = next(e["child"] for e in inner["edges"] if x[inner["party"]] in e["inputs"])
    return tuple(table[v] for table, v in zip(node["leaf"]["tables"], x))


def _weight(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def protocol_expected(payload: dict) -> dict:
    """Expected ``protocol-run --evaluate`` fields by walking the JSON trees.

    Trees always click, so eta_n is 1; the converted detector model clicks
    with probability 2**-c and keeps the protocol's error.
    """
    if "components" in payload:
        comps = [(c["tree"], _weight(c["weight"])) for c in payload["components"]]
    else:
        comps = [(payload, Fraction(1))]
    n, k = comps[0][0]["n"], comps[0][0]["k"]
    costs = [_tree_cost(tree["root"]) for tree, _ in comps]
    c = max(costs)
    support = valid_inputs(n, k)
    wrong = Fraction(0)
    for x in support:
        bit = promise_bit(x, k)
        for tree, w in comps:
            if sum(_tree_outcome(tree["root"], x)) % 2 != bit:
                wrong += w
    eps = wrong / len(support)
    expected = {
        ("cost",): c,
        ("evaluation", "eta_n"): Fraction(1),
        ("evaluation", "eps"): eps,
        ("evaluation", "detector_eta_n"): Fraction(1, 2**c),
        ("evaluation", "detector_eps"): eps,
        ("evaluation", "conversion_ok"): True,
        ("passed",): True,
    }
    for i, cost in enumerate(costs):
        expected[("per_component_costs", i, "worst_case")] = cost
    return expected


def lhv_expected(lab, payload: dict, n: int, k: int, bits: Optional[int]) -> dict:
    """Expected ``lhv-eval`` fields from the repository's kept reference
    route: the full induced distribution and the separate metric functions.
    For a converted full-broadcast protocol (``bits`` given), eta_n and eps
    come from the closed form eta_n = 2**-bits, eps = 0 instead."""
    mixed = lab.serialize.mixed_lhv_from_json(payload)
    problem = lab.ghz.ghz_problem(lab.ghz.GhzInstance(n=n, k=k))
    dist = lab.model.evaluate_mixed_lhv(mixed, problem)
    if bits is None:
        eta_n = lab.model.detection_efficiency(dist, problem).eta_n
        eps = lab.model.error_probability(dist, problem)
    else:
        eta_n, eps = Fraction(1, 2**bits), Fraction(0)
    return {
        ("eta_n",): eta_n,
        ("eps",): eps,
        ("eps_var",): lab.model.total_variation_error(dist, problem),
        ("passed",): True,
    }


def quantum_row_ok(n: int, k: int, row: dict) -> bool:
    x, a = row["x"], row["a"]
    closed = (1.0 + math.cos(math.pi * (sum(a) - sum(x) / k))) / 2**n
    target = Fraction(1, 2 ** (n - 1)) if sum(a) % 2 == promise_bit(tuple(x), k) else 0
    return abs(row["quantum"] - closed) <= 1e-12 and row["target"] == target


def quantum_expected(n: int, k: int) -> dict:
    count = k ** (n - 1)

    def table_ok(table) -> bool:
        if table is None:
            return count * 2**n > 4096
        return len(table) == count * 2**n and all(quantum_row_ok(n, k, r) for r in table)

    return {
        ("valid_inputs",): count,
        ("max_deviation",): lambda dev: 0 <= dev < 1e-12,
        ("table",): table_ok,
        ("passed",): True,
    }
