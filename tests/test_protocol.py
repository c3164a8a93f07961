"""Protocol trees: execution, cost accounting, induced distributions, and
the detector-model conversion round trip."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_mixed_protocol, random_tree
from nonlocal_lab.errors import ArityMismatch, FlavorMismatch, MalformedTree
from nonlocal_lab.ghz import (
    GhzInstance,
    broadcast_strategy,
    broadcast_strategy_mixed,
    ghz_problem,
    promise_bit,
)
from nonlocal_lab.model import (
    DeterministicLhv,
    all_click,
    detection_efficiency,
    error_probability,
    evaluate_mixed_lhv,
    mixed_lhv_metrics,
    uniform_problem,
)
from nonlocal_lab.protocol import (
    Edge,
    Leaf,
    MixedProtocol,
    Node,
    ProtocolTree,
    cost,
    cost_details,
    execute,
    induced_distribution,
    mixed_cost,
    to_detector_model,
)

F = Fraction


def leaf(tables):
    return Leaf(lhv=DeterministicLhv(tables=tables))


def test_single_leaf_execution():
    tree = ProtocolTree(n=2, k=2, root=leaf(((0, 1), (1, 0))))
    leaf_id, outcome = execute(tree, (1, 0))
    assert leaf_id == 0
    assert outcome.values == (1, 1)
    assert cost(tree) == 0


def test_depth_one_split_selects_leaf():
    tree = ProtocolTree(
        n=2,
        k=2,
        root=Node(
            party=0,
            edges=(
                Edge(inputs=frozenset({0}), child=leaf(((0, 0), (0, 0)))),
                Edge(inputs=frozenset({1}), child=leaf(((1, 1), (1, 1)))),
            ),
        ),
    )
    assert execute(tree, (0, 1))[0] == 0
    assert execute(tree, (1, 1))[0] == 1
    assert execute(tree, (1, 1))[1].values == (1, 1)
    assert cost(tree) == 1


def test_broadcast_tree_outputs_forced_parity():
    inst = GhzInstance(n=3, k=2)
    tree = broadcast_strategy(inst)
    _, outcome = execute(tree, (1, 1, 0))
    assert sum(outcome.values) % 2 == promise_bit(inst, (1, 1, 0)) == 1


def test_malformed_partition_raises_at_execution():
    overlapping = ProtocolTree(
        n=1,
        k=2,
        root=Node(
            party=0,
            edges=(
                Edge(inputs=frozenset({0, 1}), child=leaf(((0, 0),))),
                Edge(inputs=frozenset({1}), child=leaf(((1, 1),))),
            ),
        ),
    )
    with pytest.raises(MalformedTree):
        execute(overlapping, (1,))
    with pytest.raises(MalformedTree):
        overlapping.validate_partitions()
    missing = ProtocolTree(
        n=1,
        k=2,
        root=Node(
            party=0,
            edges=(Edge(inputs=frozenset({0}), child=leaf(((0, 0),))),),
        ),
    )
    with pytest.raises(MalformedTree):
        execute(missing, (1,))


def test_cost_ceiling_semantics_for_three_children():
    tree = ProtocolTree(
        n=1,
        k=3,
        root=Node(
            party=0,
            edges=tuple(
                Edge(inputs=frozenset({v}), child=leaf(((0, 0, 0),))) for v in range(3)
            ),
        ),
    )
    assert cost(tree) == 2  # ceil(log2 3)
    assert cost_details(tree).per_leaf == (2, 2, 2)


def test_cost_is_worst_case_path_sum():
    deep = Node(
        party=0,
        edges=(
            Edge(
                inputs=frozenset({0}),
                child=Node(
                    party=1,
                    edges=(
                        Edge(inputs=frozenset({0}), child=leaf(((0, 0), (0, 0)))),
                        Edge(inputs=frozenset({1}), child=leaf(((0, 0), (0, 0)))),
                    ),
                ),
            ),
            Edge(inputs=frozenset({1}), child=leaf(((0, 0), (0, 0)))),
        ),
    )
    tree = ProtocolTree(n=2, k=2, root=deep)
    details = cost_details(tree)
    assert details.worst_case == 2
    assert sorted(details.per_leaf) == [1, 2, 2]


def assert_execution_reaches_preorder_leaf(tree):
    """``execute`` returns the preorder index of the leaf whose input sets
    contain ``x``, and that leaf's outputs."""
    leaves = tree.leaves()
    # leaf_input_sets skips leaves no input reaches, so match leaves by identity
    sets_of = {id(leaf): sets for leaf, sets in tree.leaf_input_sets()}
    for x in itertools.product(range(tree.k), repeat=tree.n):
        leaf_id, outcome = execute(tree, x)
        assert 0 <= leaf_id < len(leaves)
        assert all(v in s for v, s in zip(x, sets_of[id(leaves[leaf_id])]))
        assert leaves[leaf_id].lhv.outputs(x) == outcome.values


def test_partition_soundness_random_trees():
    rng = random.Random(5)
    for _ in range(60):
        n, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
        tree = random_tree(rng, n, k)
        tree.validate_partitions()
        assert_execution_reaches_preorder_leaf(tree)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 4)])
def test_execution_leaf_index_on_mixed_broadcast_trees(n, k):
    for tree, _ in broadcast_strategy_mixed(GhzInstance(n=n, k=k)).components:
        assert_execution_reaches_preorder_leaf(tree)


def test_induced_distribution_point_mass_and_average():
    problem = uniform_problem(2, 2)
    t1 = ProtocolTree(n=2, k=2, root=leaf(((0, 0), (0, 0))))
    t2 = ProtocolTree(n=2, k=2, root=leaf(((1, 1), (1, 1))))
    single = induced_distribution(MixedProtocol(components=((t1, F(1)),)), problem)
    for x in problem.support:
        assert single.probs[x] == {(0, 0): F(1)}
    mixed = induced_distribution(
        MixedProtocol(components=((t1, F(1, 2)), (t2, F(1, 2)))), problem
    )
    for x in problem.support:
        assert mixed.probs[x] == {(0, 0): F(1, 2), (1, 1): F(1, 2)}


def test_arity_mismatch():
    tree = ProtocolTree(n=2, k=2, root=leaf(((0, 0), (0, 0))))
    with pytest.raises(ArityMismatch):
        execute(tree, (0, 1, 1))
    with pytest.raises(ArityMismatch):
        induced_distribution(
            MixedProtocol(components=((tree, F(1)),)), uniform_problem(3, 2)
        )


def test_conversion_requires_shared_randomness():
    tree = ProtocolTree(n=2, k=2, root=leaf(((0, 0), (0, 0))))
    local = MixedProtocol(components=((tree, F(1)),), flavor="local")
    with pytest.raises(FlavorMismatch):
        to_detector_model(local)
    # a deterministic tree is accepted as a degenerate mixture of either flavor
    shared = MixedProtocol(components=((tree, F(1)),), flavor="shared")
    assert mixed_cost(shared) == mixed_cost(local) == 0


def test_conversion_cost_zero_keeps_model():
    problem = uniform_problem(2, 2)
    tree = ProtocolTree(n=2, k=2, root=leaf(((0, 1), (1, 0))))
    detector = to_detector_model(MixedProtocol(components=((tree, F(1)),)))
    met = mixed_lhv_metrics(detector, problem)
    assert met.eta_n == 1
    assert len(detector.components) == 1


def test_conversion_depth_one_half_click():
    problem = uniform_problem(2, 2)
    tree = ProtocolTree(
        n=2,
        k=2,
        root=Node(
            party=0,
            edges=(
                Edge(inputs=frozenset({0}), child=leaf(((0, 0), (0, 0)))),
                Edge(inputs=frozenset({1}), child=leaf(((1, 1), (1, 1)))),
            ),
        ),
    )
    detector = to_detector_model(MixedProtocol(components=((tree, F(1)),)))
    met = mixed_lhv_metrics(detector, problem)
    assert met.eta_n == F(1, 2)


def test_conversion_broadcast_ghz3():
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    mp = MixedProtocol(components=((broadcast_strategy(inst), F(1)),))
    detector = to_detector_model(mp)
    met = mixed_lhv_metrics(detector, problem)
    assert met.eta_n == F(1, 8)
    assert met.eps == 0


def _all_click_probability(detector, x) -> Fraction:
    return sum((w for lhv, w in detector.components if lhv.clicks_on(x)), F(0))


def test_conversion_round_trip_exact():
    rng = random.Random(77)
    for _ in range(20):
        n, k = rng.choice([(2, 2), (3, 2), (4, 2)])
        mp = random_mixed_protocol(rng, n, k)
        c = mixed_cost(mp)
        detector = to_detector_model(mp)
        problem = uniform_problem(n, k)
        induced = induced_distribution(mp, problem)
        slot = F(1, 2**c)
        for x in itertools.product(range(k), repeat=n):
            assert _all_click_probability(detector, x) == slot
        d = evaluate_mixed_lhv(detector, problem)
        for x in problem.support:
            conditioned = {
                a: p / slot for a, p in d.probs[x].items() if all_click(a)
            }
            assert conditioned == induced.probs[x]


def test_conversion_preserves_error_on_ghz():
    rng = random.Random(99)
    inst = GhzInstance(n=3, k=2)
    problem = ghz_problem(inst)
    for _ in range(10):
        mp = random_mixed_protocol(rng, 3, 2)
        induced = induced_distribution(mp, problem)
        eps = error_probability(induced, problem)
        met = mixed_lhv_metrics(to_detector_model(mp), problem)
        assert met.eps == eps
        assert met.eta_n == F(1, 2 ** mixed_cost(mp))
        assert detection_efficiency(induced, problem).eta_n == 1
