"""JSON round trips and wire conventions for the file and report codecs."""

import json
import operator
import random
from fractions import Fraction

import pytest

from conftest import (
    random_mixed_lhv,
    random_mixed_protocol,
    random_tree,
    reference_lhv_from_json,
    reference_mixed_lhv_from_json,
    reference_mixed_lhv_to_json,
    reference_mixed_protocol_from_json,
    reference_mixed_protocol_to_json,
    reference_tree_from_json,
    reference_tree_to_json,
)
from nonlocal_lab import serialize
from nonlocal_lab.cyclic import Subgroup
from nonlocal_lab.errors import InvalidInput
from nonlocal_lab.ghz import GhzInstance, broadcast_strategy, broadcast_strategy_mixed, ghz_problem
from nonlocal_lab.model import DeterministicLhv
from nonlocal_lab.protocol import Leaf, MixedProtocol, _distinct_nodes, to_detector_model

F = Fraction


def test_fraction_wire_format():
    payload = serialize.fraction_to_json(F(-10, 4))
    assert payload == {"num": "-5", "den": "2"}
    assert serialize.fraction_from_json(payload) == F(-5, 2)
    big = F(2**200 + 1, 3**50)
    assert serialize.fraction_from_json(serialize.fraction_to_json(big)) == big
    with pytest.raises(InvalidInput):
        serialize.fraction_from_json({"numer": "1"})


def test_null_click_literal():
    out = (0, None, 1)
    payload = serialize.outcome_to_json(out)
    assert payload == [0, "null-click", 1]
    assert [serialize.entry_from_json(v) for v in payload] == list(out)
    with pytest.raises(InvalidInput):
        serialize.entry_from_json("missing")


def test_lhv_and_mixture_round_trip():
    rng = random.Random(4)
    lhv = DeterministicLhv(tables=((0, None), (1, 0)))
    assert serialize.lhv_from_json(serialize.lhv_to_json(lhv)) == lhv
    m = random_mixed_lhv(rng, 3, 2, detector=True)
    text = serialize.dumps(serialize.mixed_lhv_to_json(m))
    assert serialize.mixed_lhv_from_json(json.loads(text)) == m


def test_problem_round_trip():
    problem = ghz_problem(GhzInstance(n=3, k=2))
    payload = serialize.problem_to_json(problem)
    text = serialize.dumps(payload)
    back = serialize.problem_from_json(json.loads(text))
    assert back.n == problem.n and back.k == problem.k and back.l == problem.l
    assert back.mu == dict(problem.mu)
    assert {x: dict(row) for x, row in back.target.items()} == {
        x: dict(row) for x, row in problem.target.items()
    }


@pytest.mark.parametrize("bare", [0.125, 1, "1/8", None])
def test_problem_from_json_refuses_a_bare_number_probability(bare):
    # targets are exact: a probability is a num/den payload, never a bare number
    payload = json.loads(serialize.dumps(serialize.problem_to_json(ghz_problem(GhzInstance(n=3, k=2)))))
    payload["target"][1]["probs"][0]["p"] = bare
    with pytest.raises(InvalidInput, match="not a rational payload"):
        serialize.problem_from_json(payload)


def test_tree_schema_and_round_trip():
    rng = random.Random(12)
    tree = random_tree(rng, 3, 2)
    payload = serialize.tree_to_json(tree)
    assert set(payload) == {"n", "k", "root"}
    root = payload["root"]
    assert "node" in root or "leaf" in root
    if "node" in root:
        assert set(root["node"]) == {"party", "edges"}
        assert all(set(e) == {"inputs", "child"} for e in root["node"]["edges"])
    back = serialize.tree_from_json(json.loads(serialize.dumps(payload)))
    assert back == tree


def test_mixed_protocol_round_trip():
    rng = random.Random(15)
    mp = random_mixed_protocol(rng, 3, 2)
    back = serialize.mixed_protocol_from_json(
        json.loads(serialize.dumps(serialize.mixed_protocol_to_json(mp)))
    )
    assert back == mp
    assert back.flavor == "shared"


def test_subgroup_wire_format():
    h = Subgroup(modulus=8, generator=4)
    assert serialize.subgroup_to_json(h) == {"modulus": 8, "generator": 4}


def test_number_to_json_infinity():
    assert serialize.number_to_json(float("inf")) == "inf"
    assert serialize.number_to_json(F(1, 3)) == {"num": "1", "den": "3"}
    assert serialize.number_to_json(0.5) == 0.5


def test_booleans_are_not_ints():
    # bool subclasses int, so each codec field rejects true/false explicitly
    for entry in (True, False):
        with pytest.raises(InvalidInput):
            serialize.entry_from_json(entry)
    for bad in ({"num": True, "den": "1"}, {"num": "1", "den": True}, {"num": 0.5, "den": "1"}):
        with pytest.raises(InvalidInput):
            serialize.fraction_from_json(bad)
    leaf = {"leaf": {"tables": [[0, 0], [0, 1]]}}
    good = {
        "n": 2,
        "k": 2,
        "root": {"node": {"party": 0, "edges": [{"inputs": [0, 1], "child": leaf}]}},
    }
    assert serialize.tree_from_json(good).n == 2
    for path, value in (
        (("n",), True),
        (("k",), True),
        (("root", "node", "party"), False),
        (("root", "node", "edges", 0, "inputs", 0), False),
    ):
        bad = json.loads(json.dumps(good))
        cell = bad
        for key in path[:-1]:
            cell = cell[key]
        cell[path[-1]] = value
        with pytest.raises(InvalidInput):
            serialize.tree_from_json(bad)


def protocol_eval_files():
    """The benchmark's protocol-eval mix, each as (protocol payload, detector
    model payload): full broadcasts, shared-randomness broadcasts and random
    mixtures."""
    rng = random.Random(31)
    protocols = [
        MixedProtocol(components=((broadcast_strategy(GhzInstance(n=n, k=k)), F(1)),))
        for n, k in ((5, 2), (6, 2), (4, 4), (5, 4))
    ]
    protocols += [broadcast_strategy_mixed(GhzInstance(n=n, k=k)) for n, k in ((5, 2), (6, 2), (4, 4))]
    protocols += [random_mixed_protocol(rng, n, 2) for n in (3, 3, 4, 4)]
    for mp in protocols:
        if len(mp.components) == 1:
            payload = serialize.tree_to_json(mp.components[0][0])
        else:
            payload = serialize.mixed_protocol_to_json(mp)
        model = serialize.mixed_lhv_to_json(to_detector_model(mp))
        yield json.loads(serialize.dumps(payload)), json.loads(serialize.dumps(model))


def distinct_count(objects) -> tuple[int, int]:
    objects = list(objects)
    return len({id(o) for o in objects}), len(set(objects))


def test_interned_decoders_match_the_reference_on_the_protocol_eval_files():
    for protocol_payload, model_payload in protocol_eval_files():
        if "components" in protocol_payload:
            mp = serialize.mixed_protocol_from_json(protocol_payload)
            assert mp == reference_mixed_protocol_from_json(protocol_payload)
            trees = [t for t, _ in mp.components]
        else:
            tree = serialize.tree_from_json(protocol_payload)
            assert tree == reference_tree_from_json(protocol_payload)
            trees = [tree]
        leaves = [leaf for t in trees for leaf in t.leaves()]
        # one object per distinct leaf model and per distinct party table
        assert operator.eq(*distinct_count(leaf.lhv for leaf in leaves))
        assert operator.eq(*distinct_count(t for leaf in leaves for t in leaf.lhv.tables))
        m = serialize.mixed_lhv_from_json(model_payload)
        assert m == reference_mixed_lhv_from_json(model_payload)
        assert operator.eq(*distinct_count(t for lhv, _ in m.components for t in lhv.tables))
        assert operator.eq(*distinct_count(w for _, w in m.components))


def payload_occurrences(obj, wanted) -> list:
    """Every container in ``obj`` that ``wanted`` picks, once per occurrence:
    a shared payload object is listed at each place it appears."""
    found, stack = [], [obj]
    while stack:
        v = stack.pop()
        if wanted(v):
            found.append(v)
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return found


def is_subtree_payload(v) -> bool:
    return isinstance(v, dict) and ("node" in v or "leaf" in v)


def writer_cases():
    """Mixtures whose trees share subtrees (built and decoded broadcasts)
    and whose trees share nothing (random mixtures)."""
    rng = random.Random(37)
    cases = [
        MixedProtocol(components=((broadcast_strategy(GhzInstance(n=n, k=k)), F(1)),))
        for n, k in ((2, 2), (5, 2), (4, 4))
    ]
    cases += [broadcast_strategy_mixed(GhzInstance(n=n, k=k)) for n, k in ((3, 2), (5, 2), (3, 4))]
    cases += [random_mixed_protocol(rng, n, 2) for n in (2, 3, 4)]
    cases += [
        serialize.mixed_protocol_from_json(
            json.loads(serialize.dumps(serialize.mixed_protocol_to_json(mp)))
        )
        for mp in cases[3:]
    ]
    return cases


def test_writers_build_one_payload_per_distinct_subtree_and_table():
    for mp in writer_cases():
        trees = [t for t, _ in mp.components]
        distinct = list(_distinct_nodes(t.root for t in trees))
        tables = {id(t) for v in distinct if isinstance(v, Leaf) for t in v.lhv.tables}
        # one memo per written file: shared across the mixture's trees
        payload = serialize.mixed_protocol_to_json(mp)
        assert serialize.dumps(payload) == serialize.dumps(reference_mixed_protocol_to_json(mp))
        subtrees = payload_occurrences(payload, is_subtree_payload)
        assert len({id(v) for v in subtrees}) == len(distinct)
        leaf_tables = [t for v in subtrees if "leaf" in v for t in v["leaf"]["tables"]]
        assert len({id(t) for t in leaf_tables}) == len(tables)
        # and one memo per tree file
        for tree in trees:
            payload = serialize.tree_to_json(tree)
            assert serialize.dumps(payload) == serialize.dumps(reference_tree_to_json(tree))
            subtrees = payload_occurrences(payload, is_subtree_payload)
            assert len({id(v) for v in subtrees}) == sum(1 for _ in _distinct_nodes((tree.root,)))
        # the detector model: one payload per distinct table and weight object
        m = to_detector_model(mp)
        payload = serialize.mixed_lhv_to_json(m)
        assert serialize.dumps(payload) == serialize.dumps(reference_mixed_lhv_to_json(m))
        models = [c["model"] for c in payload["components"]]
        written = [t for model in models for t in model["tables"]]
        assert len({id(t) for t in written}) == len({id(t) for lhv, _ in m.components for t in lhv.tables})
        weights = [c["weight"] for c in payload["components"]]
        assert len({id(w) for w in weights}) == len({id(w) for _, w in m.components})


def test_writers_share_nothing_between_calls():
    tree = broadcast_strategy(GhzInstance(n=3, k=2))
    first, second = serialize.tree_to_json(tree), serialize.tree_to_json(tree)
    assert first == second
    assert first["root"] is not second["root"]


def test_one_argument_decoders_share_nothing_between_calls():
    payload = {"tables": [[0, 1], [0, 1]]}
    first, second = serialize.lhv_from_json(payload), serialize.lhv_from_json(payload)
    assert first == second == reference_lhv_from_json(payload)
    assert first is not second


# a valid [0, 1] and [1, 1] come first, so a cache keyed on values alone
# would take [true, 1] or [1.0, 1] for [1, 1]
BAD_TABLES = {
    "true": ([True, 1], "outcome entries must be ints or 'null-click', got True"),
    "float": ([1.0, 1], "outcome entries must be ints or 'null-click', got 1.0"),
    "negative": ([-1, 1], "outputs must be None or nonnegative ints"),
    "short": ([0], "party tables must share one input range"),
    "string": (["x", 1], "outcome entries must be ints or 'null-click', got 'x'"),
}


def model_with(tables_list, weights=None):
    weights = weights or [{"num": "1", "den": str(len(tables_list))}] * len(tables_list)
    return {
        "components": [
            {"model": {"tables": t}, "weight": w} for t, w in zip(tables_list, weights)
        ]
    }


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_a_malformed_table_after_its_valid_lookalike_is_rejected(case):
    bad, text = BAD_TABLES[case]
    good = [[[0, 1], [1, 1]], [[1, 1], [0, 1]]]
    for position in range(3):  # the bad table after every valid one, and between them
        tables = [list(t) for t in good]
        tables.insert(position, [[0, 1], bad])
        payload = json.loads(json.dumps(model_with(tables)))
        for decode in (serialize.mixed_lhv_from_json, reference_mixed_lhv_from_json):
            with pytest.raises(InvalidInput) as info:
                decode(payload)
            assert str(info.value) == text
    leaf = {"leaf": {"tables": [[0, 1], [1, 1]]}}
    bad_leaf = {"leaf": {"tables": [[0, 1], bad]}}
    tree = {
        "n": 2,
        "k": 2,
        "root": {
            "node": {
                "party": 0,
                "edges": [{"inputs": [0], "child": leaf}, {"inputs": [1], "child": bad_leaf}],
            }
        },
    }
    for decode in (serialize.tree_from_json, reference_tree_from_json):
        with pytest.raises(InvalidInput) as info:
            decode(json.loads(json.dumps(tree)))
        assert str(info.value) == text


def test_tuple_keys_are_kept_only_when_the_type_scan_finds_ints_and_strs():
    good = [[[0, 1], [1, 1]], [[1, 1], [0, "null-click"]]]
    payload = json.loads(json.dumps(model_with(good)))
    fast = serialize._Decoder(tuple_keys=True)
    assert fast.mixed_lhv(payload) == reference_mixed_lhv_from_json(payload)
    assert fast.plain()
    for bad in ([True, 1], [1.0, 1]):
        # the lookalike equals [1, 1] as a tuple, so the tuple-keyed pass
        # takes it for the cached table; the scan is what refuses that pass
        tables = good + [[[0, 1], bad]]
        payload = json.loads(json.dumps(model_with(tables)))
        fast = serialize._Decoder(tuple_keys=True)
        fast.mixed_lhv(payload)
        assert not fast.plain()
        with pytest.raises(InvalidInput, match="^outcome entries must be ints"):
            serialize.mixed_lhv_from_json(payload)
    for weight in ({"num": True, "den": 3}, {"num": 1.0, "den": 3}):
        weights = [{"num": 1, "den": 3}, weight, {"num": 1, "den": 3}]
        payload = json.loads(json.dumps(model_with(good + good[:1], weights)))
        fast = serialize._Decoder(tuple_keys=True)
        fast.mixed_lhv(payload)
        assert not fast.plain()
        with pytest.raises(InvalidInput, match="^num and den must be integer strings"):
            serialize.mixed_lhv_from_json(payload)
    # a weight the tuple-keyed pass cannot even key gets the reference's error
    payload = json.loads(json.dumps(model_with(good, [{"num": 1, "den": 2}, [1, 2]])))
    for decode in (serialize.mixed_lhv_from_json, reference_mixed_lhv_from_json):
        with pytest.raises(InvalidInput, match=r"^not a rational payload: \[1, 2\]$"):
            decode(payload)


@pytest.mark.parametrize(
    "good,bad",
    [
        ({"num": "1", "den": "2"}, {"num": True, "den": "2"}),
        ({"num": 1, "den": 2}, {"num": True, "den": 2}),
        ({"num": 1, "den": 2}, {"num": 1.0, "den": 2}),
    ],
)
def test_a_malformed_weight_after_its_valid_lookalike_is_rejected(good, bad):
    payload = model_with([[[0, 1], [0, 1]], [[1, 0], [0, 1]]], [good, bad])
    protocol = {
        "components": [
            {"tree": {"n": 1, "k": 1, "root": {"leaf": {"tables": [[0]]}}}, "weight": w}
            for w in (good, bad)
        ]
    }
    text = f"num and den must be integer strings: {bad!r}"
    for decode, obj in (
        (serialize.mixed_lhv_from_json, payload),
        (reference_mixed_lhv_from_json, payload),
        (serialize.mixed_protocol_from_json, protocol),
        (reference_mixed_protocol_from_json, protocol),
    ):
        with pytest.raises(InvalidInput) as info:
            decode(obj)
        assert str(info.value) == text
