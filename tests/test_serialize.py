"""JSON round trips and wire conventions for every domain type."""

import json
import random
from fractions import Fraction

import pytest

from conftest import random_mixed_lhv, random_mixed_protocol, random_tree
from nonlocal_lab import serialize
from nonlocal_lab.cyclic import MultisetZ, Subgroup
from nonlocal_lab.errors import InvalidInput
from nonlocal_lab.ghz import GhzInstance, ghz_problem
from nonlocal_lab.model import DeterministicLhv, Outcome
from nonlocal_lab.rectangles import Rectangle

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
    out = Outcome(values=(0, None, 1))
    payload = serialize.outcome_to_json(out)
    assert payload == [0, "null-click", 1]
    assert serialize.outcome_from_json(payload) == out
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


def test_distribution_round_trip():
    from nonlocal_lab.model import evaluate_mixed_lhv

    rng = random.Random(8)
    problem = ghz_problem(GhzInstance(n=3, k=2))
    d = evaluate_mixed_lhv(random_mixed_lhv(rng, 3, 2, detector=True), problem)
    back = serialize.distribution_from_json(
        json.loads(serialize.dumps(serialize.distribution_to_json(d)))
    )
    assert {x: dict(r) for x, r in back.probs.items()} == {
        x: dict(r) for x, r in d.probs.items()
    }


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


def test_rectangle_multiset_subgroup_round_trips():
    r = Rectangle(k=4, sets=(frozenset({0, 2}), frozenset({1})))
    assert serialize.rectangle_from_json(serialize.rectangle_to_json(r)) == r
    m = MultisetZ(modulus=4, mult=(1, 0, 2**80, 3))
    assert serialize.multiset_from_json(serialize.multiset_to_json(m)) == m
    h = Subgroup(modulus=8, generator=4)
    assert serialize.subgroup_from_json(serialize.subgroup_to_json(h)) == h


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
