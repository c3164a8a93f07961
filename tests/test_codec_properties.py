"""Property tests for the JSON codecs: every domain type survives a round trip
through JSON text, malformed entries are rejected as bad input, and the
interned decoders agree with the per-entry reference decoders on raw
payloads full of repeats and lookalikes (``true``, ``1`` and ``1.0``).

Needs the optional ``test`` extra (hypothesis); skipped without it.
"""

import itertools
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    reference_mixed_lhv_from_json,
    reference_mixed_protocol_from_json,
    reference_tree_from_json,
)
from nonlocal_lab import serialize  # noqa: E402
from nonlocal_lab.errors import InvalidInput  # noqa: E402
from nonlocal_lab.model import CorrelationProblem, DeterministicLhv, MixedLhv  # noqa: E402
from nonlocal_lab.protocol import Edge, Leaf, MixedProtocol, Node, ProtocolTree  # noqa: E402

# few, replayable examples: the whole module runs in about a second
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def through_text(payload):
    return json.loads(serialize.dumps(payload))


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))


def tables(n, k, entries):
    return st.lists(
        st.lists(entries, min_size=k, max_size=k).map(tuple), min_size=n, max_size=n
    ).map(tuple)


def weights(count):
    raw = st.lists(st.integers(1, 9), min_size=count, max_size=count)
    return raw.map(lambda r: [Fraction(v, sum(r)) for v in r])


detector_entries = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def lhvs(draw, n, k, entries=detector_entries):
    return DeterministicLhv(tables=draw(tables(n, k, entries)))


@st.composite
def mixed_lhvs(draw):
    n, k = draw(shapes)
    count = draw(st.integers(1, 4))
    models = [draw(lhvs(n, k)) for _ in range(count)]
    return MixedLhv(components=tuple(zip(models, draw(weights(count)))))


@st.composite
def partitions(draw, k):
    values = draw(st.permutations(range(k)))
    cuts = sorted(draw(st.sets(st.integers(1, k - 1), max_size=k - 1))) if k > 1 else []
    bounds = [0, *cuts, k]
    return [frozenset(values[a:b]) for a, b in zip(bounds, bounds[1:])]


@st.composite
def trees(draw, n=None, k=None):
    if n is None:
        n, k = draw(shapes)

    def build(depth):
        if depth == 3 or draw(st.booleans()):
            return Leaf(lhv=draw(lhvs(n, k, st.integers(0, 1))))
        party = draw(st.integers(0, n - 1))
        return Node(
            party=party,
            edges=tuple(Edge(inputs=b, child=build(depth + 1)) for b in draw(partitions(k))),
        )

    return ProtocolTree(n=n, k=k, root=build(0))


@st.composite
def mixed_protocols(draw):
    n, k = draw(shapes)
    count = draw(st.integers(1, 3))
    components = [draw(trees(n, k)) for _ in range(count)]
    return MixedProtocol(components=tuple(zip(components, draw(weights(count)))))


@st.composite
def problems(draw):
    n, k = draw(shapes)
    inputs = list(itertools.product(range(k), repeat=n))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(inputs), max_size=len(inputs)))
    raw[0] += 1
    mu = {x: Fraction(r, sum(raw)) for x, r in zip(inputs, raw)}
    outcomes = list(itertools.product(range(2), repeat=n))
    point_masses = draw(st.booleans())  # rows of int entries, 0s included
    target = {}
    for x in inputs:
        if point_masses:
            hit = draw(st.sampled_from(outcomes))
            target[x] = {a: int(a == hit) for a in outcomes}
            continue
        cells = draw(st.lists(st.integers(0, 3), min_size=len(outcomes), max_size=len(outcomes)))
        cells[0] += 1
        total = sum(cells)
        target[x] = {a: Fraction(c, total) for a, c in zip(outcomes, cells) if c}
    return CorrelationProblem(n=n, k=k, l=2, mu=mu, target=target)


@SETTINGS
@given(st.fractions())
def test_fraction_round_trip(q):
    assert serialize.fraction_from_json(through_text(serialize.fraction_to_json(q))) == q


@SETTINGS
@given(st.one_of(st.none(), st.integers()))
def test_entry_round_trip(v):
    payload = through_text(serialize.entry_to_json(v))
    assert (payload == "null-click") == (v is None)
    assert serialize.entry_from_json(payload) == v


@SETTINGS
@given(shapes.flatmap(lambda s: lhvs(*s)))
def test_lhv_round_trip(lhv):
    assert serialize.lhv_from_json(through_text(serialize.lhv_to_json(lhv))) == lhv


@SETTINGS
@given(mixed_lhvs())
def test_mixed_lhv_round_trip(m):
    assert serialize.mixed_lhv_from_json(through_text(serialize.mixed_lhv_to_json(m))) == m


@SETTINGS
@given(trees())
def test_tree_round_trip(tree):
    assert serialize.tree_from_json(through_text(serialize.tree_to_json(tree))) == tree


@SETTINGS
@given(mixed_protocols())
def test_mixed_protocol_round_trip(mp):
    payload = through_text(serialize.mixed_protocol_to_json(mp))
    assert serialize.mixed_protocol_from_json(payload) == mp


@SETTINGS
@given(problems())
def test_problem_round_trip(problem):
    back = serialize.problem_from_json(through_text(serialize.problem_to_json(problem)))
    assert (back.n, back.k, back.l) == (problem.n, problem.k, problem.l)
    assert back.mu == problem.mu
    assert back.target == problem.target


not_an_entry = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.sampled_from(["", "0", "null", "null_click", "Null-Click", "inf"]),
    st.lists(st.integers(), max_size=2),
)


@SETTINGS
@given(not_an_entry)
def test_non_int_entries_are_rejected(v):
    with pytest.raises(InvalidInput):
        serialize.entry_from_json(v)


# lookalikes: raw JSON values equal under ``==`` to a valid one, of another
# type or sign, so a cache keyed on values alone would confuse them
LOOKALIKES = {0: [False, 0.0, -1], 1: [True, 1.0, "1"], "null-click": [None, "Null-Click"]}


@st.composite
def raw_table_pools(draw, k):
    """A few valid raw tables that the payload then repeats, sometimes with
    a lookalike copy of one of them or a table of the wrong length."""
    valid = st.lists(st.sampled_from([0, 1, "null-click"]), min_size=k, max_size=k)
    pool = draw(st.lists(valid, min_size=1, max_size=3))
    twist = draw(st.sampled_from(["none", "none", "lookalike", "short"]))
    if twist == "lookalike":
        table = list(draw(st.sampled_from(pool)))
        i = draw(st.integers(0, k - 1))
        table[i] = draw(st.sampled_from(LOOKALIKES[table[i]]))
        pool.append(table)
    elif twist == "short":
        pool.append(draw(st.sampled_from(pool))[1:])
    return pool


@st.composite
def raw_lhvs(draw, n, pool):
    return {"tables": [draw(st.sampled_from(pool)) for _ in range(n)]}


@st.composite
def raw_weights(draw, count):
    """``count`` equal weights as in the files the CLI writes, one of them
    sometimes a lookalike payload."""
    weights = [{"num": "1", "den": str(count)} for _ in range(count)]
    i = draw(st.integers(0, count - 1))
    weights[i] = draw(
        st.sampled_from(
            [
                weights[i],
                {"num": 1, "den": count},
                {"num": True, "den": count},
                {"num": 1.0, "den": count},
                {"den": str(count), "num": "1"},
            ]
        )
    )
    return weights


@st.composite
def raw_mixed_lhvs(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = draw(raw_table_pools(k))
    count = draw(st.integers(1, 6))
    return {
        "components": [
            {"model": draw(raw_lhvs(n, pool)), "weight": w} for w in draw(raw_weights(count))
        ]
    }


raw_partitions = st.sampled_from(
    [[[0, 1]], [[0], [1]], [[1], [0]], [[False], [1]], [[0.0], [1]], [[True], [0]], [[0], []]]
)


@st.composite
def raw_trees(draw):
    n = draw(st.integers(1, 3))
    pool = [t for t in draw(raw_table_pools(2)) if None not in t and "null-click" not in t]
    pool = pool or [[0, 1]]  # leaves click

    def build(depth):
        if depth == 3 or draw(st.booleans()):
            return {"leaf": draw(raw_lhvs(n, pool))}
        party = draw(st.sampled_from([*range(n), *range(n), True, -1, n]))
        edges = [{"inputs": b, "child": build(depth + 1)} for b in draw(raw_partitions)]
        return {"node": {"party": party, "edges": edges}}

    return {"n": n, "k": 2, "root": build(0)}


@st.composite
def raw_mixed_protocols(draw):
    count = draw(st.integers(1, 3))
    return {
        "components": [
            {"tree": draw(raw_trees()), "weight": w} for w in draw(raw_weights(count))
        ]
    }


def decoded(decode, payload):
    """The decoded object, or the type and text of the error it raised."""
    try:
        return decode(json.loads(json.dumps(payload)))
    except Exception as exc:  # every error must match, bad input or not
        return type(exc), str(exc)


@SETTINGS
@given(raw_mixed_lhvs())
def test_interned_mixed_lhv_decoder_matches_the_reference(payload):
    got = decoded(serialize.mixed_lhv_from_json, payload)
    assert got == decoded(reference_mixed_lhv_from_json, payload)


@SETTINGS
@given(raw_trees())
def test_interned_tree_decoder_matches_the_reference(payload):
    assert decoded(serialize.tree_from_json, payload) == decoded(reference_tree_from_json, payload)


@SETTINGS
@given(raw_mixed_protocols())
def test_interned_mixed_protocol_decoder_matches_the_reference(payload):
    got = decoded(serialize.mixed_protocol_from_json, payload)
    assert got == decoded(reference_mixed_protocol_from_json, payload)
