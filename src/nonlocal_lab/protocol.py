"""Broadcast-communication protocol trees, their cost accounting, and the
conversion of shared-randomness protocols into inefficient-detector local
models.

A deterministic protocol is a rooted tree. Each internal node names the party
whose turn it is to broadcast and partitions that party's input range into
edge blocks; each leaf holds a click-only deterministic local model. The
worst-case number of broadcast bits is the maximum over root-to-leaf paths of
the per-node ``ceil(log2(children))`` charges.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Union

from .errors import (
    ArityMismatch,
    FlavorMismatch,
    InvalidInput,
    MalformedTree,
)
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    InputVector,
    MixedLhv,
    ModelDistribution,
    OutcomeVector,
    ZERO,
    _score,
    _sums_to_one,
)

Flavor = Literal["shared", "local"]
SHARED: Flavor = "shared"
LOCAL: Flavor = "local"


@dataclass(frozen=True)
class Leaf:
    """Terminal node: every party answers from a click-only local model."""

    lhv: DeterministicLhv

    def __post_init__(self) -> None:
        if not self.lhv.is_click_only:
            raise MalformedTree("leaf models must be click-only")


@dataclass(frozen=True)
class Edge:
    inputs: frozenset[int]
    child: Union["Node", Leaf]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        if not self.inputs:
            raise MalformedTree("edge blocks must be nonempty")


@dataclass(frozen=True, eq=False)
class Node:
    """Internal node. Nodes compare by value, like the other parts of a tree,
    but each pair of node objects is compared once (:func:`_same_nodes`), so
    two equal DAGs compare in one step per distinct pair, not per path."""

    party: int
    edges: tuple[Edge, ...]
    #: leaves under the edges before each edge, then the node's leaf count
    #: (one entry more than ``edges``), so :func:`execute` reads a leaf's
    #: preorder index without counting subtrees
    leaf_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.party < 0:
            raise MalformedTree("party index must be nonnegative")
        if not self.edges:
            raise MalformedTree("internal nodes need at least one edge")
        offsets = [0]
        for e in self.edges:
            below = e.child.leaf_offsets[-1] if isinstance(e.child, Node) else 1
            offsets.append(offsets[-1] + below)
        object.__setattr__(self, "leaf_offsets", tuple(offsets))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Node:
            return NotImplemented
        return _same_nodes(self, other)

    def __hash__(self) -> int:
        # equal nodes have equal speakers and blocks; the children are left
        # out, so hashing does not walk the paths below
        return hash((self.party, tuple(e.inputs for e in self.edges)))


def _same_nodes(a: Node, b: Node) -> bool:
    """Whether the subtrees under ``a`` and ``b`` are equal, comparing each
    pair of node objects met at the same place once. A pair met again is
    taken as equal: the walk ends False as soon as any pair differs."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if a.__class__ is not b.__class__:
            return False
        if isinstance(a, Leaf):
            if a != b:
                return False
            continue
        if a.party != b.party or len(a.edges) != len(b.edges):
            return False
        for e, f in zip(a.edges, b.edges):
            if e.inputs != f.inputs:
                return False
            stack.append((e.child, f.child))
    return True


@dataclass(frozen=True)
class ProtocolTree:
    """Deterministic classical model with broadcast communication."""

    n: int
    k: int
    root: Union[Node, Leaf]

    def __post_init__(self) -> None:
        full = frozenset(range(self.k))
        for v in _distinct_nodes((self.root,)):
            if isinstance(v, Leaf):
                if (v.lhv.n, v.lhv.k) != (self.n, self.k):
                    raise ArityMismatch("leaf model shape differs from the tree's (n, k)")
                continue
            if v.party >= self.n:
                raise ArityMismatch(f"node speaks for party {v.party} but n={self.n}")
            blocks = [e.inputs for e in v.edges]
            covered = frozenset().union(*blocks)
            if not covered <= full:
                raise ArityMismatch("edge block outside the input range")
            # the blocks partition the speaker's settings, so every input
            # selects exactly one edge
            if sum(map(len, blocks)) != len(covered):
                raise MalformedTree(f"overlapping blocks at party {v.party}")
            if covered != full:
                raise MalformedTree(f"blocks at party {v.party} do not cover inputs")

    def _walk(self) -> Iterator[tuple[Leaf, tuple[frozenset[int], ...], int]]:
        """Each leaf in preorder (left to right), with the per-party input
        sets consistent with its path (empty when no input reaches it) and
        the bits charged on that path.

        This walk expands shared subtrees, once per path: the conversion
        needs one model per reachable path, and the tests use it as the
        oracle of the per-distinct-node passes below."""
        stack = [(self.root, (frozenset(range(self.k)),) * self.n, 0)]
        while stack:
            v, sets, bits = stack.pop()
            if isinstance(v, Leaf):
                yield v, sets, bits
                continue
            p = v.party
            bits += (len(v.edges) - 1).bit_length()  # ceil(log2(children))
            head, own, tail = sets[:p], sets[p], sets[p + 1 :]
            for e in reversed(v.edges):
                stack.append((e.child, head + (own & e.inputs,) + tail, bits))

    def leaves(self) -> list[Leaf]:
        """Leaves in stable (preorder, left-to-right) order."""
        return [leaf for leaf, _, _ in self._walk()]

    def leaf_input_sets(self) -> list[tuple[Leaf, tuple[frozenset[int], ...]]]:
        """Each leaf some input reaches, with the per-party input sets
        consistent with its path."""
        return [(leaf, sets) for leaf, sets, _ in self._walk() if all(sets)]


def _distinct_nodes(roots: Iterable[Union[Node, Leaf]]) -> Iterator[Union[Node, Leaf]]:
    """Each distinct node and leaf object under ``roots`` once, in order of
    first appearance in preorder. Decoded trees share subtrees, so this
    visits each distinct node once, not once per path."""
    seen: set[int] = set()
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            yield v
            if isinstance(v, Node):
                stack.extend(e.child for e in reversed(v.edges))


def distinct_leaves(trees: Iterable[ProtocolTree]) -> list[Leaf]:
    """Each distinct leaf object of ``trees`` once, in order of first
    appearance in preorder."""
    return [v for v in _distinct_nodes(t.root for t in trees) if isinstance(v, Leaf)]


def execute(tree: ProtocolTree, x: InputVector) -> tuple[int, OutcomeVector]:
    """Walk the unique root-to-leaf path selected by ``x``.

    Returns the (preorder) leaf index and the joint outcome.
    """
    if len(x) != tree.n or not all(map(range(tree.k).__contains__, x)):
        raise ArityMismatch(f"input {x} outside {{0..{tree.k - 1}}}^{tree.n}")

    v: Union[Node, Leaf] = tree.root
    index = 0
    while isinstance(v, Node):
        own = x[v.party]
        # the tree's blocks partition each speaker's settings: one holds ``own``
        for j, e in enumerate(v.edges):
            if own in e.inputs:
                break
        index += v.leaf_offsets[j]
        v = e.child
    return index, v.lhv.outputs(x)


@dataclass(frozen=True)
class CostReport:
    """Worst-case broadcast bits plus the per-leaf path charges."""

    worst_case: int
    per_leaf: tuple[int, ...]


def cost_details(tree: ProtocolTree) -> CostReport:
    """The bits charged on every root-to-leaf path, in preorder.

    Decoded trees share subtrees, so the charges below each distinct
    (subtree, bits charged above it) pair are built once and concatenated,
    in a memo local to this call. Paths that no input can take are charged
    too, as the benchmark's oracle charges them; charging reachable paths
    only waits on the benchmark's fix (ROADMAP item 1).
    """
    if isinstance(tree.root, Leaf):
        return CostReport(worst_case=0, per_leaf=(0,))
    memo: dict[tuple[int, int], tuple[int, ...]] = {}  # keyed on (node id, bits above)
    # frames: a node, the bits charged above it and the charges under its
    # first edges; a frame waits while the child of its next edge is on top
    stack: list[tuple[Node, int, list]] = [(tree.root, 0, [])]
    while stack:
        v, bits, parts = stack[-1]
        below = bits + (len(v.edges) - 1).bit_length()  # ceil(log2(children))
        for e in v.edges[len(parts) :]:
            if isinstance(e.child, Leaf):
                parts.append((below,))
            elif (id(e.child), below) in memo:
                parts.append(memo[id(e.child), below])
            else:
                stack.append((e.child, below, []))
                break
        else:
            stack.pop()
            charges = memo[id(v), bits] = tuple(itertools.chain.from_iterable(parts))
            if stack:
                stack[-1][2].append(charges)
    per_leaf = memo[id(tree.root), 0]
    return CostReport(worst_case=max(per_leaf), per_leaf=per_leaf)


def cost(tree: ProtocolTree) -> int:
    """Broadcast bits of the worst-case execution."""
    return cost_details(tree).worst_case


@dataclass(frozen=True)
class MixedProtocol:
    """Distribution over deterministic protocol trees.

    ``flavor`` records whether the randomness is shared between all parties or
    local per party (a product-form distribution). A single deterministic tree
    is a degenerate mixture of either flavor.
    """

    components: tuple[tuple[ProtocolTree, Fraction], ...]
    flavor: Flavor = SHARED

    def __post_init__(self) -> None:
        comps = tuple((t, Fraction(w)) for t, w in self.components)
        object.__setattr__(self, "components", comps)
        if self.flavor not in (SHARED, LOCAL):
            raise FlavorMismatch(f"unknown flavor {self.flavor!r}")
        if not comps:
            raise InvalidInput("a mixture needs at least one component")
        shape = (comps[0][0].n, comps[0][0].k)
        for t, w in comps:
            if (t.n, t.k) != shape:
                raise ArityMismatch("all component trees must share (n, k)")
            if w <= 0:
                raise InvalidInput("component weights must be positive")
        if not _sums_to_one([w for _, w in comps]):
            raise InvalidInput("component weights must sum to 1")

    @property
    def n(self) -> int:
        return self.components[0][0].n

    @property
    def k(self) -> int:
        return self.components[0][0].k


def mixed_cost(m: MixedProtocol) -> int:
    """Worst-case bits over the whole mixture (the cost charged to it)."""
    return max(cost(t) for t, _ in m.components)


def induced_distribution(m: MixedProtocol, problem: CorrelationProblem) -> ModelDistribution:
    """Exact mixture of the deterministic executions over the support."""
    if (m.n, m.k) != (problem.n, problem.k):
        raise ArityMismatch(
            f"protocol is ({m.n}, {m.k}) but problem is ({problem.n}, {problem.k})"
        )
    probs: dict[InputVector, dict[tuple, Fraction]] = {}
    for x in problem.support:
        row: dict[tuple, Fraction] = {}
        for t, w in m.components:
            _, a = execute(t, x)
            row[a] = row.get(a, ZERO) + w
        probs[x] = row
    return ModelDistribution(probs=probs)


def induced_metrics(m: MixedProtocol, problem: CorrelationProblem) -> tuple[Fraction, Fraction]:
    """``(eta_n, eps)`` of the distribution the protocol induces, in one pass.

    Each (input, tree) execution adds the tree's weight, as an integer
    numerator over the lcm of the weights' denominators, to the input's
    click row, which the model scorer then turns into the figures. Equal to
    :func:`induced_distribution` followed by ``detection_efficiency`` and
    ``error_probability``, and independent of :func:`to_detector_model`
    (outcomes come from :func:`execute` only), so the two routes
    cross-check the conversion.
    """
    if (m.n, m.k) != (problem.n, problem.k):
        raise ArityMismatch(
            f"protocol is ({m.n}, {m.k}) but problem is ({problem.n}, {problem.k})"
        )
    den = math.lcm(*(w.denominator for _, w in m.components))
    trees = [(t, w.numerator * (den // w.denominator)) for t, w in m.components]
    click_rows: dict[InputVector, dict[OutcomeVector, int]] = {}
    for x in problem.support:
        row = click_rows[x] = {}
        for t, w in trees:
            a = execute(t, x)[1]  # leaves are click-only: every outcome clicks
            row[a] = row.get(a, 0) + w
    metrics = _score(click_rows, den, problem)
    return metrics.eta_n, metrics.eps


def to_detector_model(m: MixedProtocol) -> MixedLhv:
    """Trade the broadcast conversation for detector efficiency.

    The shared randomness additionally guesses one of ``2**c`` conversation
    transcripts (``c`` being the mixture's worst-case cost). Each leaf claims
    exactly one transcript; a party answers from the leaf's tables when its
    own input is consistent with the guessed leaf and stays silent otherwise.
    Transcripts not claimed by any leaf make everyone stay silent, so the
    all-click probability is exactly ``2**-c`` for every input, and
    conditioned on all parties clicking the outcome distribution is exactly
    the one the protocol induces.

    Leaves share tables and trees share weights, so each (table, input set)
    pair is masked once and each distinct tree weight is scaled once. A
    masked table of a checked leaf table is checked, so the models are built
    without checking their tables again.
    """
    if m.flavor != SHARED:
        raise FlavorMismatch("conversion requires the shared-randomness flavor")
    k = m.k

    @functools.cache
    def mask(table: tuple, inputs: frozenset[int]) -> tuple:
        return tuple(table[v] if v in inputs else None for v in range(k))

    c = 0
    claims: list[tuple[Fraction, list[DeterministicLhv]]] = []  # per tree: weight, leaf models
    for tree, w in m.components:
        models = []
        for leaf, sets, bits in tree._walk():
            c = max(c, bits)
            if all(sets):
                models.append(DeterministicLhv._checked(tuple(map(mask, leaf.lhv.tables, sets))))
        claims.append((w, models))
    guesses = 1 << c
    slot = Fraction(1, guesses)
    scaled: dict[Fraction, Fraction] = {}
    components: list[tuple[DeterministicLhv, Fraction]] = []
    claimed_mass = ZERO
    for w, models in claims:
        if w not in scaled:
            scaled[w] = w * slot
        components.extend(zip(models, itertools.repeat(scaled[w])))
        claimed_mass += w * len(models)
    # the tree weights sum to 1, so this is the mass of the unclaimed transcripts
    silent_weight = slot * (guesses - claimed_mass)
    if silent_weight > 0:
        silent = DeterministicLhv(tables=tuple(tuple(None for _ in range(k)) for _ in range(m.n)))
        components.append((silent, silent_weight))
    return MixedLhv(components=tuple(components))
