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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Union

from .errors import ArityMismatch, FlavorMismatch, InvalidInput, MalformedTree
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    InputVector,
    MixedLhv,
    ModelDistribution,
    Outcome,
    ZERO,
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


@dataclass(frozen=True)
class Node:
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


@dataclass(frozen=True)
class ProtocolTree:
    """Deterministic classical model with broadcast communication."""

    n: int
    k: int
    root: Union[Node, Leaf]

    def __post_init__(self) -> None:
        for node in self._nodes():
            if node.party >= self.n:
                raise ArityMismatch(f"node speaks for party {node.party} but n={self.n}")
            for e in node.edges:
                if any(not (0 <= v < self.k) for v in e.inputs):
                    raise ArityMismatch("edge block outside the input range")
        for leaf in self.leaves():
            if (leaf.lhv.n, leaf.lhv.k) != (self.n, self.k):
                raise ArityMismatch("leaf model shape differs from the tree's (n, k)")

    def _nodes(self) -> list[Node]:
        out: list[Node] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            if isinstance(v, Node):
                out.append(v)
                stack.extend(e.child for e in v.edges)
        return out

    def leaves(self) -> list[Leaf]:
        """Leaves in stable (preorder, left-to-right) order."""
        out: list[Leaf] = []

        def walk(v: Union[Node, Leaf]) -> None:
            if isinstance(v, Leaf):
                out.append(v)
            else:
                for e in v.edges:
                    walk(e.child)

        walk(self.root)
        return out

    def leaf_input_sets(self) -> list[tuple[Leaf, tuple[frozenset[int], ...]]]:
        """Each leaf with the per-party input sets consistent with its path."""
        full = frozenset(range(self.k))
        out: list[tuple[Leaf, tuple[frozenset[int], ...]]] = []

        def walk(v: Union[Node, Leaf], sets: tuple[frozenset[int], ...]) -> None:
            if isinstance(v, Leaf):
                out.append((v, sets))
                return
            for e in v.edges:
                nxt = list(sets)
                nxt[v.party] = nxt[v.party] & e.inputs
                if nxt[v.party]:
                    walk(e.child, tuple(nxt))

        walk(self.root, tuple(full for _ in range(self.n)))
        return out

    def validate_partitions(self) -> None:
        """Check every node's edge blocks are disjoint and cover {0..k-1}."""
        for node in self._nodes():
            seen: set[int] = set()
            for e in node.edges:
                if seen & e.inputs:
                    raise MalformedTree(f"overlapping blocks at party {node.party}")
                seen |= e.inputs
            if seen != set(range(self.k)):
                raise MalformedTree(f"blocks at party {node.party} do not cover inputs")


def execute(tree: ProtocolTree, x: InputVector) -> tuple[int, Outcome]:
    """Walk the unique root-to-leaf path selected by ``x``.

    Returns the (preorder) leaf index and the joint outcome. Raises
    ``MalformedTree`` if a visited node's blocks fail to select exactly one
    edge for the speaking party's input.
    """
    if len(x) != tree.n or any(not (0 <= v < tree.k) for v in x):
        raise ArityMismatch(f"input {x} outside {{0..{tree.k - 1}}}^{tree.n}")

    v: Union[Node, Leaf] = tree.root
    index = 0
    while isinstance(v, Node):
        matches = [j for j, e in enumerate(v.edges) if x[v.party] in e.inputs]
        if len(matches) != 1:
            raise MalformedTree(
                f"input {x[v.party]} of party {v.party} selects {len(matches)} edges"
            )
        index += v.leaf_offsets[matches[0]]
        v = v.edges[matches[0]].child
    return index, Outcome(values=v.lhv.outputs(x))


@dataclass(frozen=True)
class CostReport:
    """Worst-case broadcast bits plus the per-leaf path charges."""

    worst_case: int
    per_leaf: tuple[int, ...]


def cost_details(tree: ProtocolTree) -> CostReport:
    per_leaf: list[int] = []

    def walk(v: Union[Node, Leaf], acc: int) -> None:
        if isinstance(v, Leaf):
            per_leaf.append(acc)
            return
        charge = math.ceil(math.log2(len(v.edges))) if len(v.edges) > 1 else 0
        for e in v.edges:
            walk(e.child, acc + charge)

    walk(tree.root, 0)
    return CostReport(worst_case=max(per_leaf), per_leaf=tuple(per_leaf))


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
        if sum(w for _, w in comps) != 1:
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
            _, outcome = execute(t, x)
            row[outcome.values] = row.get(outcome.values, ZERO) + w
        probs[x] = row
    return ModelDistribution(probs=probs)


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
    """
    if m.flavor != SHARED:
        raise FlavorMismatch("conversion requires the shared-randomness flavor")
    c = mixed_cost(m)
    guesses = 1 << c
    slot = Fraction(1, guesses)
    k = m.k
    components: list[tuple[DeterministicLhv, Fraction]] = []
    silent_weight = ZERO
    for tree, w in m.components:
        claimed = tree.leaf_input_sets()
        for leaf, sets in claimed:
            tables = tuple(
                tuple(leaf.lhv.tables[i][v] if v in sets[i] else None for v in range(k))
                for i in range(m.n)
            )
            components.append((DeterministicLhv(tables=tables), w * slot))
        silent_weight += w * slot * (guesses - len(claimed))
    if silent_weight > 0:
        silent = DeterministicLhv(tables=tuple(tuple(None for _ in range(k)) for _ in range(m.n)))
        components.append((silent, silent_weight))
    return MixedLhv(components=tuple(components))
