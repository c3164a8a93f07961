"""JSON codecs for every domain type.

Wire conventions: rationals are ``{"num": "<int>", "den": "<int>"}`` with
string-encoded big integers; a silent detector is the literal string
``"null-click"``; infinite bias is the literal string ``"inf"``. Protocol
trees are ``{"node": {"party", "edges": [{"inputs", "child"}]}}`` or
``{"leaf": {"tables": [[entry, ...], ...]}}`` with explicit input blocks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Union

from .cyclic import MultisetZ, Subgroup
from .errors import InvalidInput
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    MixedLhv,
    ModelDistribution,
    Outcome,
)
from .protocol import Edge, Leaf, MixedProtocol, Node, ProtocolTree
from .rectangles import Rectangle

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


def outcome_to_json(a: Outcome) -> list:
    return [entry_to_json(v) for v in a.values]


def outcome_from_json(obj: Any) -> Outcome:
    return Outcome(values=tuple(entry_from_json(v) for v in obj))


def lhv_to_json(lhv: DeterministicLhv) -> dict:
    return {"tables": [[entry_to_json(v) for v in t] for t in lhv.tables]}


def lhv_from_json(obj: Any) -> DeterministicLhv:
    return DeterministicLhv(
        tables=tuple(tuple(entry_from_json(v) for v in t) for t in obj["tables"])
    )


def mixed_lhv_to_json(m: MixedLhv) -> dict:
    return {
        "components": [
            {"model": lhv_to_json(lhv), "weight": fraction_to_json(w)}
            for lhv, w in m.components
        ]
    }


def mixed_lhv_from_json(obj: Any) -> MixedLhv:
    return MixedLhv(
        components=tuple(
            (lhv_from_json(c["model"]), fraction_from_json(c["weight"]))
            for c in obj["components"]
        )
    )


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
                    {"a": [entry_to_json(v) for v in a], "p": number_to_json(q)}
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
            p = cell["p"]
            row[a] = fraction_from_json(p) if isinstance(p, dict) else float(p)
        target[tuple(rec["x"])] = row
    return CorrelationProblem(
        n=obj["n"], k=obj["k"], l=obj["l"], mu=mu, target=target
    )


def distribution_to_json(d: ModelDistribution) -> dict:
    return {
        "probs": [
            {
                "x": list(x),
                "row": [
                    {"a": [entry_to_json(v) for v in a], "p": fraction_to_json(q)}
                    for a, q in row.items()
                ],
            }
            for x, row in d.probs.items()
        ]
    }


def distribution_from_json(obj: Any) -> ModelDistribution:
    probs = {}
    for rec in obj["probs"]:
        row = {
            tuple(entry_from_json(v) for v in cell["a"]): fraction_from_json(cell["p"])
            for cell in rec["row"]
        }
        probs[tuple(rec["x"])] = row
    return ModelDistribution(probs=probs)


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


def _tree_node_from_json(obj: Any) -> Union[Node, Leaf]:
    if "leaf" in obj:
        return Leaf(lhv=lhv_from_json(obj["leaf"]))
    node = obj["node"]
    return Node(
        party=_int_from_json(node["party"], "party"),
        edges=tuple(
            Edge(
                inputs=frozenset(_int_from_json(v, "edge input") for v in e["inputs"]),
                child=_tree_node_from_json(e["child"]),
            )
            for e in node["edges"]
        ),
    )


def tree_to_json(t: ProtocolTree) -> dict:
    return {"n": t.n, "k": t.k, "root": _tree_node_to_json(t.root)}


def tree_from_json(obj: Any) -> ProtocolTree:
    return ProtocolTree(
        n=_int_from_json(obj["n"], "n"),
        k=_int_from_json(obj["k"], "k"),
        root=_tree_node_from_json(obj["root"]),
    )


def mixed_protocol_to_json(m: MixedProtocol) -> dict:
    return {
        "flavor": m.flavor,
        "components": [
            {"tree": tree_to_json(t), "weight": fraction_to_json(w)}
            for t, w in m.components
        ],
    }


def mixed_protocol_from_json(obj: Any) -> MixedProtocol:
    return MixedProtocol(
        components=tuple(
            (tree_from_json(c["tree"]), fraction_from_json(c["weight"]))
            for c in obj["components"]
        ),
        flavor=obj.get("flavor", "shared"),
    )


def rectangle_to_json(r: Rectangle) -> dict:
    return {"k": r.k, "sets": [sorted(s) for s in r.sets]}


def rectangle_from_json(obj: Any) -> Rectangle:
    return Rectangle(k=obj["k"], sets=tuple(frozenset(s) for s in obj["sets"]))


def multiset_to_json(m: MultisetZ) -> dict:
    return {"modulus": m.modulus, "mult": [str(v) for v in m.mult]}


def multiset_from_json(obj: Any) -> MultisetZ:
    return MultisetZ(modulus=obj["modulus"], mult=tuple(int(v) for v in obj["mult"]))


def subgroup_to_json(h: Subgroup) -> dict:
    return {"modulus": h.modulus, "generator": h.generator}


def subgroup_from_json(obj: Any) -> Subgroup:
    return Subgroup(modulus=obj["modulus"], generator=obj["generator"])


def dumps(obj: Any, **kwargs: Any) -> str:
    """json.dumps with stable key order for reproducible reports."""
    return json.dumps(obj, sort_keys=True, **kwargs)
