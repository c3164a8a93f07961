"""JSON codecs for the files and reports the command line reads and writes.

Wire conventions: rationals are ``{"num": "<int>", "den": "<int>"}`` with
string-encoded big integers; a silent detector is the literal string
``"null-click"``; infinite bias is the literal string ``"inf"``. Protocol
trees are ``{"node": {"party", "edges": [{"inputs", "child"}]}}`` or
``{"leaf": {"tables": [[entry, ...], ...]}}`` with explicit input blocks.

Decoding a model or protocol file builds each distinct party table, weight
payload, edge block, leaf model and subtree once: repeats reuse the first
object, so a decoded tree may share subtrees. The intern tables live for
one decoded file and are keyed on the raw JSON values together with their
types (``true``, ``1`` and ``1.0`` are three keys), and only entries that
decoded cleanly are kept, so a malformed entry raises the same
``InvalidInput`` at every occurrence.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Callable, Union

from .cyclic import Subgroup
from .errors import InvalidInput
from .model import CorrelationProblem, DeterministicLhv, MixedLhv, OutcomeVector
from .protocol import Edge, Leaf, MixedProtocol, Node, ProtocolTree

NULL_CLICK = "null-click"


def fraction_to_json(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _int_from_json(v: Any, what: str) -> int:
    """A JSON int. ``bool`` subclasses ``int`` in Python, so ``true`` and
    ``false`` are rejected explicitly."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidInput(f"{what} must be an int, got {v!r}")
    return v


def fraction_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise InvalidInput(f"not a rational payload: {obj!r}")
    if any(isinstance(v, (bool, float)) for v in obj.values()):
        raise InvalidInput(f"num and den must be integer strings: {obj!r}")
    return Fraction(int(obj["num"]), int(obj["den"]))


def number_to_json(value) -> Any:
    """Fractions to num/den payloads; infinity to "inf"; floats unchanged."""
    if isinstance(value, Fraction):
        return fraction_to_json(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def entry_to_json(v: Union[int, None]) -> Any:
    return NULL_CLICK if v is None else v


def entry_from_json(v: Any) -> Union[int, None]:
    if v == NULL_CLICK:
        return None
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InvalidInput(f"outcome entries must be ints or {NULL_CLICK!r}, got {v!r}")


def outcome_to_json(a: OutcomeVector) -> list:
    return [entry_to_json(v) for v in a]


def lhv_to_json(lhv: DeterministicLhv) -> dict:
    return {"tables": [[entry_to_json(v) for v in t] for t in lhv.tables]}


def _table_from_json(t: Any) -> tuple:
    return tuple(entry_from_json(v) for v in t)


def _block_from_json(block: Any) -> frozenset[int]:
    return frozenset(_int_from_json(v, "edge input") for v in block)


def _interned(cache: dict, raw: Any, decode: Callable[[Any], Any]) -> Any:
    """``decode(raw)``, built once per distinct ``raw`` of ``cache``.

    The key is ``repr(raw)``: for parsed JSON it spells out every value with
    its type (``[True, 1]``, ``[1.0, 1]`` and ``[1, 1]`` differ, though all
    three compare equal), so two raws share a key only when they are the
    same JSON. A raw that fails to decode is not stored and raises again."""
    try:
        key = repr(raw)
    except ValueError:  # an int past the str conversion limit: decode, don't keep
        return decode(raw)
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = decode(raw)
        return value


class _Decoder:
    """The intern tables of one decoded file."""

    def __init__(self) -> None:
        self.tables: dict[str, tuple] = {}
        self.blocks: dict[str, frozenset[int]] = {}
        self.weights: dict[str, Fraction] = {}
        # keyed on decoded tables (checked ints and None only) or on the ids
        # of the parts, which the cached objects hold and so keep alive
        self.lhvs: dict[tuple, DeterministicLhv] = {}
        self.leaves: dict[int, Leaf] = {}
        self.edges: dict[tuple[int, int], Edge] = {}
        self.nodes: dict[tuple, Node] = {}

    def lhv(self, obj: Any) -> DeterministicLhv:
        cache = self.tables
        raw = obj["tables"]
        try:  # every table seen before: no Python-level call per table
            tables = tuple(map(cache.__getitem__, map(repr, raw)))
        except (KeyError, TypeError, ValueError):
            tables = tuple(_interned(cache, t, _table_from_json) for t in raw)
        lhv = self.lhvs.get(tables)
        if lhv is None:
            lhv = self.lhvs[tables] = DeterministicLhv(tables=tables)
        return lhv

    def weight(self, obj: Any) -> Fraction:
        return _interned(self.weights, obj, fraction_from_json)

    def mixed_lhv(self, obj: Any) -> MixedLhv:
        return MixedLhv(
            components=tuple(
                (self.lhv(c["model"]), self.weight(c["weight"])) for c in obj["components"]
            )
        )

    def edge(self, obj: Any) -> Edge:
        inputs = _interned(self.blocks, obj["inputs"], _block_from_json)
        child = self.node(obj["child"])
        edge = self.edges.get((id(inputs), id(child)))
        if edge is None:
            edge = self.edges[id(inputs), id(child)] = Edge(inputs=inputs, child=child)
        return edge

    def node(self, obj: Any) -> Union[Node, Leaf]:
        """A subtree; equal subtrees (a broadcast tree's subtrees depend on
        few prefixes) decode to one shared object."""
        if "leaf" in obj:
            lhv = self.lhv(obj["leaf"])
            leaf = self.leaves.get(id(lhv))
            if leaf is None:
                leaf = self.leaves[id(lhv)] = Leaf(lhv=lhv)
            return leaf
        node = obj["node"]
        party = _int_from_json(node["party"], "party")
        edges = tuple(map(self.edge, node["edges"]))
        key = (party, *map(id, edges))
        v = self.nodes.get(key)
        if v is None:
            v = self.nodes[key] = Node(party=party, edges=edges)
        return v

    def tree(self, obj: Any) -> ProtocolTree:
        return ProtocolTree(
            n=_int_from_json(obj["n"], "n"),
            k=_int_from_json(obj["k"], "k"),
            root=self.node(obj["root"]),
        )


def lhv_from_json(obj: Any) -> DeterministicLhv:
    return _Decoder().lhv(obj)


def mixed_lhv_to_json(m: MixedLhv) -> dict:
    return {
        "components": [
            {"model": lhv_to_json(lhv), "weight": fraction_to_json(w)}
            for lhv, w in m.components
        ]
    }


def mixed_lhv_from_json(obj: Any) -> MixedLhv:
    return _Decoder().mixed_lhv(obj)


def problem_to_json(p: CorrelationProblem) -> dict:
    return {
        "n": p.n,
        "k": p.k,
        "l": p.l,
        "mu": [
            {"x": list(x), "weight": fraction_to_json(w)} for x, w in p.mu.items()
        ],
        "target": [
            {
                "x": list(x),
                "probs": [
                    {"a": outcome_to_json(a), "p": fraction_to_json(q)}
                    for a, q in row.items()
                ],
            }
            for x, row in p.target.items()
        ],
    }


def problem_from_json(obj: Any) -> CorrelationProblem:
    mu = {
        tuple(rec["x"]): fraction_from_json(rec["weight"]) for rec in obj["mu"]
    }
    target = {}
    for rec in obj["target"]:
        row = {}
        for cell in rec["probs"]:
            a = tuple(entry_from_json(v) for v in cell["a"])
            row[a] = fraction_from_json(cell["p"])
        target[tuple(rec["x"])] = row
    return CorrelationProblem(
        n=obj["n"], k=obj["k"], l=obj["l"], mu=mu, target=target
    )


def _tree_node_to_json(v: Union[Node, Leaf]) -> dict:
    if isinstance(v, Leaf):
        return {"leaf": lhv_to_json(v.lhv)}
    return {
        "node": {
            "party": v.party,
            "edges": [
                {"inputs": sorted(e.inputs), "child": _tree_node_to_json(e.child)}
                for e in v.edges
            ],
        }
    }


def tree_to_json(t: ProtocolTree) -> dict:
    return {"n": t.n, "k": t.k, "root": _tree_node_to_json(t.root)}


def tree_from_json(obj: Any) -> ProtocolTree:
    return _Decoder().tree(obj)


def mixed_protocol_to_json(m: MixedProtocol) -> dict:
    return {
        "flavor": m.flavor,
        "components": [
            {"tree": tree_to_json(t), "weight": fraction_to_json(w)}
            for t, w in m.components
        ],
    }


def mixed_protocol_from_json(obj: Any) -> MixedProtocol:
    dec = _Decoder()
    return MixedProtocol(
        components=tuple(
            (dec.tree(c["tree"]), dec.weight(c["weight"])) for c in obj["components"]
        ),
        flavor=obj.get("flavor", "shared"),
    )


def subgroup_to_json(h: Subgroup) -> dict:
    return {"modulus": h.modulus, "generator": h.generator}


def dumps(obj: Any, **kwargs: Any) -> str:
    """json.dumps with stable key order for reproducible reports."""
    return json.dumps(obj, sort_keys=True, **kwargs)
