"""Shared random generators for protocol and model tests, the lattice
oracle for the rectangle scan, the per-outcome advantage oracle, the
per-entry reference decoders and encoders, the per-component detector
conversion and the expanded broadcast builders.

All randomness is seeded at the call site so every test run is replayable.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from nonlocal_lab import ghz, serialize
from nonlocal_lab.cyclic import indicator, product
from nonlocal_lab.ghz import GhzInstance
from nonlocal_lab.errors import EmptyWeight
from nonlocal_lab.model import CorrelationProblem, DeterministicLhv, MixedLhv
from nonlocal_lab.protocol import Edge, Leaf, MixedProtocol, Node, ProtocolTree
from nonlocal_lab.rectangles import Rectangle, ScanResult


def lattice_scan(inst: GhzInstance, deltas) -> tuple[ScanResult, ...]:
    """Oracle for ``rectangles.scan_rectangles``: every rectangle of the
    subset lattice, the last party fastest and each party's subsets by size,
    then lexicographically (``iter_rectangles`` order), counted by residue
    mod 2k. Each delta keeps the first strictly heavier rectangle with some
    advantage >= delta; ``examined`` is the lattice size."""
    if not deltas:
        return ()
    n, k = inst.n, inst.k
    subsets = [
        frozenset(s) for size in range(1, k + 1) for s in itertools.combinations(range(k), size)
    ]
    vector = functools.cache(lambda part: indicator(2 * k, part))
    best, witness = [0] * len(deltas), [None] * len(deltas)
    for sets in itertools.product(subsets, repeat=n):
        counts = product([vector(s) for s in sets])
        n0, n1 = counts[0], counts[k]
        for i, delta in enumerate(deltas):
            if n0 + n1 > best[i] and Fraction(max(n0, n1), n0 + n1) >= delta:
                best[i], witness[i] = n0 + n1, sets
    denom = inst.valid_input_count()
    return tuple(
        ScanResult(delta, Fraction(total, denom), len(subsets) ** n, w)
        for delta, total, w in zip(deltas, best, witness)
    )


def per_outcome_advantage(r: Rectangle, a, problem: CorrelationProblem) -> Fraction:
    """Oracle for ``rectangles.advantages``: one scan of the whole support
    for the single outcome ``a``, the fraction of the rectangle's input
    weight on which ``a`` has nonzero target probability."""
    weight = Fraction(0)
    admissible = Fraction(0)
    for x in problem.support:
        if x in r:
            w = problem.mu_weight(x)
            weight += w
            if problem.target_prob(x, a) > 0:
                admissible += w
    if weight == 0:
        raise EmptyWeight("rectangle carries no input weight")
    return admissible / weight


def per_outcome_advantages(r: Rectangle, problem: CorrelationProblem) -> dict:
    """Every click outcome in ``{0..l-1}^n`` with nonzero
    :func:`per_outcome_advantage`, one support scan per outcome."""
    outcomes = itertools.product(range(problem.l), repeat=problem.n)
    return {a: v for a in outcomes if (v := per_outcome_advantage(r, a, problem))}


# -- reference decoders: every entry, table, weight and subtree decoded afresh,
# the route the interned decoders in ``serialize`` must agree with


def reference_lhv_from_json(obj) -> DeterministicLhv:
    return DeterministicLhv(
        tables=tuple(tuple(serialize.entry_from_json(v) for v in t) for t in obj["tables"])
    )


def reference_mixed_lhv_from_json(obj) -> MixedLhv:
    return MixedLhv(
        components=tuple(
            (reference_lhv_from_json(c["model"]), serialize.fraction_from_json(c["weight"]))
            for c in obj["components"]
        )
    )


def _reference_node_from_json(obj):
    if "leaf" in obj:
        return Leaf(lhv=reference_lhv_from_json(obj["leaf"]))
    node = obj["node"]
    return Node(
        party=serialize._int_from_json(node["party"], "party"),
        edges=tuple(
            Edge(
                inputs=frozenset(serialize._int_from_json(v, "edge input") for v in e["inputs"]),
                child=_reference_node_from_json(e["child"]),
            )
            for e in node["edges"]
        ),
    )


def reference_tree_from_json(obj) -> ProtocolTree:
    return ProtocolTree(
        n=serialize._int_from_json(obj["n"], "n"),
        k=serialize._int_from_json(obj["k"], "k"),
        root=_reference_node_from_json(obj["root"]),
    )


def reference_mixed_protocol_from_json(obj) -> MixedProtocol:
    return MixedProtocol(
        components=tuple(
            (reference_tree_from_json(c["tree"]), serialize.fraction_from_json(c["weight"]))
            for c in obj["components"]
        ),
        flavor=obj.get("flavor", "shared"),
    )


def _reference_lhv_to_json(lhv: DeterministicLhv) -> dict:
    return {"tables": [[serialize.entry_to_json(v) for v in t] for t in lhv.tables]}


def _reference_node_to_json(v) -> dict:
    if isinstance(v, Leaf):
        return {"leaf": _reference_lhv_to_json(v.lhv)}
    return {
        "node": {
            "party": v.party,
            "edges": [
                {"inputs": sorted(e.inputs), "child": _reference_node_to_json(e.child)}
                for e in v.edges
            ],
        }
    }


def reference_tree_to_json(t: ProtocolTree) -> dict:
    """Oracle for ``serialize.tree_to_json``: a fresh payload per path, with
    no object shared."""
    return {"n": t.n, "k": t.k, "root": _reference_node_to_json(t.root)}


def reference_mixed_protocol_to_json(m: MixedProtocol) -> dict:
    return {
        "flavor": m.flavor,
        "components": [
            {"tree": reference_tree_to_json(t), "weight": serialize.fraction_to_json(w)}
            for t, w in m.components
        ],
    }


def reference_mixed_lhv_to_json(m: MixedLhv) -> dict:
    """Oracle for ``serialize.mixed_lhv_to_json``: a fresh payload per
    component and table."""
    return {
        "components": [
            {"model": _reference_lhv_to_json(lhv), "weight": serialize.fraction_to_json(w)}
            for lhv, w in m.components
        ]
    }


def _expanded_chain_tree(inst: GhzInstance, prefix: int, leaf_tables) -> ProtocolTree:
    """Chain of k-way splits for parties 0..prefix-1 with one subtree per
    path: k**prefix leaves, each from a callback on the settings above it."""
    k = inst.k

    def build(level: int, head: tuple[int, ...]):
        if level == prefix:
            return Leaf(lhv=DeterministicLhv(tables=leaf_tables(head)))
        return Node(
            party=level,
            edges=tuple(
                Edge(inputs=frozenset({v}), child=build(level + 1, head + (v,))) for v in range(k)
            ),
        )

    return ProtocolTree(n=inst.n, k=k, root=build(0, ()))


def expanded_prefix_strategy(inst: GhzInstance, prefix: int) -> ProtocolTree:
    """Oracle for ``ghz.broadcast_prefix_strategy``: the same leaf rule, read
    off the whole head of broadcast settings, on the expanded tree."""
    n, k = inst.n, inst.k
    zeros = tuple(0 for _ in range(k))
    answerer = prefix if prefix < n else 0
    own = range(k) if prefix < n else zeros
    suffix_counts = ghz._full_sum_counts(n - min(prefix + 1, n), 2 * k, k)
    majority = [ghz._majority_bit(inst, sigma, suffix_counts)[0] for sigma in range(2 * k)]

    def leaf_tables(head):
        sigma = sum(head)
        guesses = tuple(majority[(sigma + v) % (2 * k)] for v in own)
        return tuple(guesses if i == answerer else zeros for i in range(n))

    return _expanded_chain_tree(inst, prefix, leaf_tables)


def expanded_strategy_mixed(inst: GhzInstance) -> MixedProtocol:
    """Oracle for ``ghz.broadcast_strategy_mixed`` on expanded trees."""
    n, k = inst.n, inst.k
    zeros_row = ghz._full_sum_counts(0, 2 * k, k)
    components = []
    for r in itertools.product(range(2), repeat=n - 1):
        flip = sum(r) % 2

        def leaf_tables(head, flip=flip, r=r):
            bit, _ = ghz._majority_bit(inst, sum(head) % (2 * k), zeros_row)
            first = tuple((bit ^ flip) for _ in range(k))
            return (first,) + tuple(tuple(ri for _ in range(k)) for ri in r)

        components.append((_expanded_chain_tree(inst, n, leaf_tables), Fraction(1, 2 ** (n - 1))))
    return MixedProtocol(components=tuple(components))


def reference_detector_model(m: MixedProtocol) -> MixedLhv:
    """Oracle for ``protocol.to_detector_model``: each reachable leaf masked
    table by table and each component weight scaled on its own."""
    k = m.k
    c = 0
    components = []  # tree weights until c is known
    claimed_mass = Fraction(0)
    for tree, w in m.components:
        before = len(components)
        for leaf, sets, bits in tree._walk():
            c = max(c, bits)
            if all(sets):
                tables = tuple(
                    tuple(leaf.lhv.tables[i][v] if v in sets[i] else None for v in range(k))
                    for i in range(m.n)
                )
                components.append((DeterministicLhv(tables=tables), w))
        claimed_mass += w * (len(components) - before)
    slot = Fraction(1, 2**c)
    components = [(lhv, w * slot) for lhv, w in components]
    silent_weight = slot * (2**c - claimed_mass)
    if silent_weight > 0:
        silent = DeterministicLhv(tables=tuple(tuple(None for _ in range(k)) for _ in range(m.n)))
        components.append((silent, silent_weight))
    return MixedLhv(components=tuple(components))


def random_click_lhv(rng: random.Random, n: int, k: int, l: int = 2) -> DeterministicLhv:
    return DeterministicLhv(
        tables=tuple(tuple(rng.randrange(l) for _ in range(k)) for _ in range(n))
    )


def random_detector_lhv(rng: random.Random, n: int, k: int, l: int = 2) -> DeterministicLhv:
    entries = list(range(l)) + [None]
    return DeterministicLhv(
        tables=tuple(tuple(rng.choice(entries) for _ in range(k)) for _ in range(n))
    )


def random_partition(rng: random.Random, k: int) -> list[frozenset[int]]:
    values = list(range(k))
    rng.shuffle(values)
    nblocks = rng.randint(1, k)
    cuts = sorted(rng.sample(range(1, k), nblocks - 1))
    blocks = []
    prev = 0
    for cut in cuts + [k]:
        blocks.append(frozenset(values[prev:cut]))
        prev = cut
    return blocks


def random_tree(
    rng: random.Random, n: int, k: int, max_depth: int = 3, l: int = 2
) -> ProtocolTree:
    def build(depth: int):
        if depth >= max_depth or rng.random() < 0.3:
            return Leaf(lhv=random_click_lhv(rng, n, k, l))
        return Node(
            party=rng.randrange(n),
            edges=tuple(
                Edge(inputs=block, child=build(depth + 1))
                for block in random_partition(rng, k)
            ),
        )

    root = build(0)
    if isinstance(root, Leaf):  # keep at least one broadcast most of the time
        root = Node(
            party=rng.randrange(n),
            edges=tuple(
                Edge(inputs=block, child=build(1))
                for block in random_partition(rng, k)
            ),
        )
    return ProtocolTree(n=n, k=k, root=root)


def random_weights(rng: random.Random, count: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def random_mixed_protocol(
    rng: random.Random, n: int, k: int, max_depth: int = 3, max_components: int = 3
) -> MixedProtocol:
    count = rng.randint(1, max_components)
    trees = [random_tree(rng, n, k, max_depth) for _ in range(count)]
    weights = random_weights(rng, count)
    return MixedProtocol(components=tuple(zip(trees, weights)), flavor="shared")


def random_mixed_lhv(
    rng: random.Random, n: int, k: int, max_components: int = 4, detector: bool = False
) -> MixedLhv:
    count = rng.randint(1, max_components)
    maker = random_detector_lhv if detector else random_click_lhv
    models = [maker(rng, n, k) for _ in range(count)]
    weights = random_weights(rng, count)
    return MixedLhv(components=tuple(zip(models, weights)))
