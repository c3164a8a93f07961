"""JSON codecs for the files and reports the command line reads and writes.

Wire conventions: rationals are ``{"num": "<int>", "den": "<int>"}`` with
string-encoded big integers; a silent detector is the literal string
``"null-click"``; infinite bias is the literal string ``"inf"``. Protocol
trees are ``{"node": {"party", "edges": [{"inputs", "child"}]}}`` or
``{"leaf": {"tables": [[entry, ...], ...]}}`` with explicit input blocks.

Decoding a model or protocol file builds each distinct party table, weight
payload, edge block, leaf and subtree once, and checks each distinct table
once: repeats reuse the first object, so a decoded tree may share subtrees.
The intern tables live for one decoded file. They are keyed on tuples of
the raw JSON values, and that decode is kept only when one type scan finds
every raw entry behind those keys an int or a str; a file that fails the
scan is malformed and is decoded again on ``repr`` keys, where ``true``,
``1`` and ``1.0`` are three keys. Only entries that decoded cleanly are
kept, so a malformed entry raises the same ``InvalidInput`` at every
occurrence.

Writing a model or protocol file builds each distinct party table, weight
and subtree payload once, keyed on the identity of the object, which the
written model or protocol holds alive: repeats reuse the first payload
object, just as the decoder shares what it builds. The JSON text is the
same as for unshared payloads; a payload that shares objects is read-only,
as changing one occurrence changes every other.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Any, Callable, Optional, Union

from .cyclic import Subgroup
from .errors import InvalidInput
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    MixedLhv,
    OutcomeVector,
    _check_lhv_tables,
)
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
    return _Encoder().lhv(lhv)


def _table_from_json(t: Any) -> tuple:
    return tuple(entry_from_json(v) for v in t)


def _block_from_json(block: Any) -> frozenset[int]:
    return frozenset(_int_from_json(v, "edge input") for v in block)


def _tuples(raw: Any) -> tuple:
    return tuple(map(tuple, raw))


def _items(raw: Any) -> tuple:
    return tuple(raw.items())


def _interned(
    cache: dict, key: Callable[[Any], Any], obj: Any, build: Callable[[Any], Any]
) -> Any:
    """``build(obj)``, built once per distinct ``key(obj)`` in ``cache``: the
    decoder keys raw JSON on its values, the encoder objects on their ids."""
    try:
        k = key(obj)
    except ValueError:  # an int past the str conversion limit: build, don't keep
        return build(obj)
    try:
        return cache[k]
    except KeyError:
        value = cache[k] = build(obj)
        return value


class _Decoder:
    """The intern tables of one decoded file.

    Tables, leaves, edge blocks and weights are looked up by a key of their
    raw JSON. With ``tuple_keys`` the key is the tuple of the raw values,
    and the raws are kept for one type scan (:meth:`plain`): equal tuples
    are the same JSON only when their entries are ints and strs
    (``(True, 1) == (1.0, 1) == (1, 1)``). Otherwise the key is
    ``repr(raw)``, which spells out every value with its type. A raw that
    fails to decode is not stored and raises again.
    """

    def __init__(self, tuple_keys: bool) -> None:
        self.key: Callable[[Any], Any] = tuple if tuple_keys else repr
        self.tables_key: Callable[[Any], Any] = _tuples if tuple_keys else repr
        self.weight_key: Callable[[Any], Any] = _items if tuple_keys else repr
        #: the raw lists and weight values behind tuple keys, for the scan
        self.seen: Optional[list] = [] if tuple_keys else None
        self.tables: dict[Any, tuple] = {}
        self.blocks: dict[Any, frozenset[int]] = {}
        self.weights: dict[Any, Fraction] = {}
        self.leaves: dict[Any, Leaf] = {}
        self.valid: set[int] = set()  # ids of tables whose entries passed
        # keyed on the ids of the parts, which the cached nodes hold and so
        # keep alive
        self.nodes: dict[tuple, Node] = {}

    def plain(self) -> bool:
        """Whether every raw entry behind a tuple key is an int or a str."""
        return set(map(type, itertools.chain.from_iterable(self.seen))) <= {int, str}

    def lhv(self, obj: Any) -> DeterministicLhv:
        """A model; the tables are interned, not the model, as the components
        of a converted model file are nearly all distinct."""
        raw = obj["tables"]
        if self.seen is not None:
            self.seen.extend(raw)
        return self._lhv(raw)

    def _lhv(self, raw: Any) -> DeterministicLhv:
        cache = self.tables
        try:  # every table seen before: no Python-level call per table
            tables = tuple(map(cache.__getitem__, map(self.key, raw)))
        except (KeyError, TypeError, ValueError):
            tables = tuple(_interned(cache, self.key, t, _table_from_json) for t in raw)
        # each distinct table is checked once, however many models share it
        _check_lhv_tables(tables, self.valid)
        return DeterministicLhv._checked(tables)

    def weight(self, obj: Any) -> Fraction:
        if self.seen is not None:
            self.seen.append(obj.values())
        return _interned(self.weights, self.weight_key, obj, fraction_from_json)

    def mixed_lhv(self, obj: Any) -> MixedLhv:
        return MixedLhv(
            components=tuple(
                (self.lhv(c["model"]), self.weight(c["weight"])) for c in obj["components"]
            )
        )

    def node(self, obj: Any) -> Union[Node, Leaf]:
        """A subtree; equal subtrees (a broadcast tree's subtrees depend on
        few prefixes) decode to one shared object, keyed on the party and
        the ids of its blocks and children."""
        if "leaf" in obj:
            raw = obj["leaf"]["tables"]
            if self.seen is not None:
                self.seen.extend(raw)
            return _interned(self.leaves, self.tables_key, raw, self._leaf)
        node = obj["node"]
        party = _int_from_json(node["party"], "party")
        parts: list = []  # block, child, block, child, ...
        for e in node["edges"]:
            raw = e["inputs"]
            if self.seen is not None:
                self.seen.append(raw)
            inputs = _interned(self.blocks, self.key, raw, _block_from_json)
            child = self.node(e["child"])
            if not inputs:  # raises where the reference does, before the next edge
                Edge(inputs, child)
            parts += (inputs, child)
        key = (party, *map(id, parts))
        v = self.nodes.get(key)
        if v is None:
            edges = tuple(map(Edge, parts[::2], parts[1::2]))
            v = self.nodes[key] = Node(party=party, edges=edges)
        return v

    def _leaf(self, raw: Any) -> Leaf:
        return Leaf(lhv=self._lhv(raw))

    def tree(self, obj: Any) -> ProtocolTree:
        return ProtocolTree(
            n=_int_from_json(obj["n"], "n"),
            k=_int_from_json(obj["k"], "k"),
            root=self.node(obj["root"]),
        )


def _decode(build: Callable[[_Decoder], Any]) -> Any:
    """``build`` run on tuple keys, kept when one type scan finds every raw
    entry behind them an int or a str. Only a malformed file fails that
    pass or the scan (a valid file holds no other entries); it is decoded
    again on ``repr`` keys, the pass whose errors are the reference's."""
    fast = _Decoder(tuple_keys=True)
    try:
        value = build(fast)
    except Exception:  # any failure is decided again by the repr-key pass
        pass
    else:
        if fast.plain():
            return value
    return build(_Decoder(tuple_keys=False))


def lhv_from_json(obj: Any) -> DeterministicLhv:
    return _decode(lambda dec: dec.lhv(obj))


def mixed_lhv_to_json(m: MixedLhv) -> dict:
    enc = _Encoder()
    return {
        "components": [
            {"model": enc.lhv(lhv), "weight": enc.weight(w)} for lhv, w in m.components
        ]
    }


def mixed_lhv_from_json(obj: Any) -> MixedLhv:
    return _decode(lambda dec: dec.mixed_lhv(obj))


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


def _table_to_json(t: tuple) -> list:
    return [entry_to_json(v) for v in t]


class _Encoder:
    """The payload memos of one written file, keyed on object identity: the
    model or protocol being written holds every key's object alive."""

    def __init__(self) -> None:
        self.tables: dict[int, list] = {}
        self.weights: dict[int, dict[str, str]] = {}
        self.nodes: dict[int, dict] = {}

    def lhv(self, lhv: DeterministicLhv) -> dict:
        return {"tables": [_interned(self.tables, id, t, _table_to_json) for t in lhv.tables]}

    def weight(self, w: Fraction) -> dict[str, str]:
        return _interned(self.weights, id, w, fraction_to_json)

    def node(self, v: Union[Node, Leaf]) -> dict:
        return _interned(self.nodes, id, v, self._node)

    def _node(self, v: Union[Node, Leaf]) -> dict:
        if isinstance(v, Leaf):
            return {"leaf": self.lhv(v.lhv)}
        edges = [{"inputs": sorted(e.inputs), "child": self.node(e.child)} for e in v.edges]
        return {"node": {"party": v.party, "edges": edges}}

    def tree(self, t: ProtocolTree) -> dict:
        return {"n": t.n, "k": t.k, "root": self.node(t.root)}


def tree_to_json(t: ProtocolTree) -> dict:
    return _Encoder().tree(t)


def tree_from_json(obj: Any) -> ProtocolTree:
    return _decode(lambda dec: dec.tree(obj))


def mixed_protocol_to_json(m: MixedProtocol) -> dict:
    enc = _Encoder()
    return {
        "flavor": m.flavor,
        "components": [
            {"tree": enc.tree(t), "weight": enc.weight(w)} for t, w in m.components
        ],
    }


def mixed_protocol_from_json(obj: Any) -> MixedProtocol:
    return _decode(
        lambda dec: MixedProtocol(
            components=tuple(
                (dec.tree(c["tree"]), dec.weight(c["weight"])) for c in obj["components"]
            ),
            flavor=obj.get("flavor", "shared"),
        )
    )


def subgroup_to_json(h: Subgroup) -> dict:
    return {"modulus": h.modulus, "generator": h.generator}


def dumps(obj: Any, **kwargs: Any) -> str:
    """json.dumps with stable key order for reproducible reports."""
    return json.dumps(obj, sort_keys=True, **kwargs)
