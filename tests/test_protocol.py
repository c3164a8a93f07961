"""Protocol trees: execution, cost accounting, induced distributions, and
the detector-model conversion round trip."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    random_click_lhv,
    random_mixed_protocol,
    random_partition,
    random_tree,
    reference_detector_model,
)
from nonlocal_lab.errors import ArityMismatch, FlavorMismatch, InvalidInput, MalformedTree
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
    CostReport,
    Edge,
    Leaf,
    MixedProtocol,
    Node,
    ProtocolTree,
    cost,
    cost_details,
    distinct_leaves,
    execute,
    induced_distribution,
    induced_metrics,
    mixed_cost,
    to_detector_model,
)
from nonlocal_lab.serialize import (
    dumps,
    mixed_protocol_from_json,
    mixed_protocol_to_json,
    tree_from_json,
    tree_to_json,
)

F = Fraction


def leaf(tables):
    return Leaf(lhv=DeterministicLhv(tables=tables))


def test_single_leaf_execution():
    tree = ProtocolTree(n=2, k=2, root=leaf(((0, 1), (1, 0))))
    leaf_id, outcome = execute(tree, (1, 0))
    assert leaf_id == 0
    assert outcome == (1, 1)
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
    assert execute(tree, (1, 1))[1] == (1, 1)
    assert cost(tree) == 1


def test_broadcast_tree_outputs_forced_parity():
    inst = GhzInstance(n=3, k=2)
    tree = broadcast_strategy(inst)
    _, outcome = execute(tree, (1, 1, 0))
    assert sum(outcome) % 2 == promise_bit(inst, (1, 1, 0)) == 1


def _node_json(party, blocks, child):
    return {"node": {"party": party, "edges": [{"inputs": b, "child": child} for b in blocks]}}


def test_malformed_partition_raises_at_execution():
    for blocks, text in (
        ([[0, 1], [1]], "overlapping blocks at party 0"),
        ([[0]], "blocks at party 0 do not cover inputs"),
    ):
        root = Node(
            party=0,
            edges=tuple(Edge(inputs=frozenset(b), child=leaf(((0, 0),))) for b in blocks),
        )
        with pytest.raises(MalformedTree) as exc:
            ProtocolTree(n=1, k=2, root=root)
        assert str(exc.value) == text
        payload = {"n": 1, "k": 2, "root": _node_json(0, blocks, {"leaf": {"tables": [[0, 0]]}})}
        with pytest.raises(MalformedTree) as exc:
            tree_from_json(payload)
        assert str(exc.value) == text


LEAF_2X2 = {"leaf": {"tables": [[0, 0], [0, 0]]}}


@pytest.mark.parametrize(
    "root,text",
    [
        (_node_json(2, [[0], [1]], LEAF_2X2), "node speaks for party 2 but n=2"),
        (_node_json(0, [[0], [1, 2]], LEAF_2X2), "edge block outside the input range"),
        (
            _node_json(0, [[0], [1]], {"leaf": {"tables": [[0, 0]] * 3}}),
            "leaf model shape differs from the tree's (n, k)",
        ),
    ],
)
def test_arity_faults_fail_at_construction(root, text):
    with pytest.raises(ArityMismatch) as exc:
        tree_from_json({"n": 2, "k": 2, "root": root})
    assert str(exc.value) == text


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
    contain ``x``, and that leaf's outputs. Leaves are paired with their
    paths by preorder position, not by identity: a shared leaf object sits
    at the end of several paths."""
    paths = [(leaf, sets) for leaf, sets, _ in tree._walk()]
    for x in itertools.product(range(tree.k), repeat=tree.n):
        leaf_id, outcome = execute(tree, x)
        assert 0 <= leaf_id < len(paths)
        leaf, sets = paths[leaf_id]
        assert all(v in s for v, s in zip(x, sets))
        assert leaf.lhv.outputs(x) == outcome


def test_partition_soundness_random_trees():
    rng = random.Random(5)
    for _ in range(60):
        n, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
        tree = random_tree(rng, n, k)
        assert_execution_reaches_preorder_leaf(tree)


def repeated_speaker_tree(rng, n, k):
    """Party 0 splits its settings at the root and again below every edge,
    so leaves whose two blocks do not meet are unreachable."""

    def second_split():
        return Node(
            party=0,
            edges=tuple(
                Edge(inputs=block, child=Leaf(lhv=random_click_lhv(rng, n, k)))
                for block in random_partition(rng, k)
            ),
        )

    root = Node(
        party=0,
        edges=tuple(Edge(inputs=block, child=second_split()) for block in random_partition(rng, k)),
    )
    return ProtocolTree(n=n, k=k, root=root)


def invariant_trees():
    rng = random.Random(13)
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
    trees = [random_tree(rng, n, k) for n, k in shapes for _ in range(10)]
    trees += [repeated_speaker_tree(rng, n, k) for n, k in shapes for _ in range(5)]
    # a split of {0, 1} below the same split reaches only two of its four leaves
    halves = (frozenset({0}), frozenset({1}))
    trees.append(
        ProtocolTree(
            n=2,
            k=2,
            root=Node(
                party=0,
                edges=tuple(
                    Edge(
                        inputs=a,
                        child=Node(
                            party=0,
                            edges=tuple(Edge(inputs=b, child=leaf(((0, 1), (1, 0)))) for b in halves),
                        ),
                    )
                    for a in halves
                ),
            ),
        )
    )
    return trees


def test_leaf_rectangles_partition_the_input_space():
    trees = invariant_trees()
    assert any(len(t.leaf_input_sets()) < len(t.leaves()) for t in trees)
    for tree in trees:
        owner = {}
        for index, (_, sets) in enumerate(tree.leaf_input_sets()):
            for x in itertools.product(*sets):
                assert x not in owner  # rectangles are disjoint
                owner[x] = index
        assert len(owner) == tree.k**tree.n  # and cover {0..k-1}^n
        assert_execution_reaches_preorder_leaf(tree)
        assert len(cost_details(tree).per_leaf) == len(tree.leaves())


def test_conversion_clicks_with_two_to_minus_c_on_every_input():
    rng = random.Random(17)
    by_shape = {}
    for tree in invariant_trees():
        by_shape.setdefault((tree.n, tree.k), []).append(tree)
    mixtures = [MixedProtocol(components=((t, F(1)),)) for ts in by_shape.values() for t in ts]
    for ts in by_shape.values():
        for _ in range(5):
            chosen = rng.sample(ts, rng.randint(2, 3))
            weights = [F(rng.randint(1, 9)) for _ in chosen]
            mixtures.append(
                MixedProtocol(components=tuple((t, w / sum(weights)) for t, w in zip(chosen, weights)))
            )
    for mp in mixtures:
        slot = F(1, 2 ** mixed_cost(mp))
        detector = to_detector_model(mp)
        for x in itertools.product(range(mp.k), repeat=mp.n):
            assert _all_click_probability(detector, x) == slot


def test_overlapping_blocks_cannot_be_built():
    # converted without this check, the tree clicked with probability 1/2
    # on (0, 0) and 1 on (1, 1)
    root = Node(
        party=0,
        edges=(
            Edge(inputs=frozenset({0, 1}), child=leaf(((0, 0), (0, 0)))),
            Edge(inputs=frozenset({1}), child=leaf(((1, 1), (1, 1)))),
        ),
    )
    with pytest.raises(MalformedTree, match=r"^overlapping blocks at party 0$"):
        ProtocolTree(n=2, k=2, root=root)


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
    for x in ((0, 1, 1), (0, 2), (0, -1), (0.5, 0)):
        with pytest.raises(ArityMismatch):
            execute(tree, x)
    with pytest.raises(ArityMismatch):
        induced_distribution(
            MixedProtocol(components=((tree, F(1)),)), uniform_problem(3, 2)
        )


def test_mixture_weights_must_sum_to_one_exactly():
    trees = [ProtocolTree(n=2, k=2, root=leaf(((v, v), (v, v)))) for v in (0, 1, 0)]
    tiny = F(1, 2**60)
    for weights in ((F(1, 2), F(1, 2) + tiny), (F(1, 3), F(1, 3), F(1, 3) - tiny)):
        with pytest.raises(InvalidInput, match="^component weights must sum to 1$"):
            MixedProtocol(components=tuple(zip(trees, weights)))
    exact = MixedProtocol(components=tuple(zip(trees, (F(1, 3), 0.5, F(1, 6)))))
    assert [w for _, w in exact.components] == [F(1, 3), F(1, 2), F(1, 6)]


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


def conversion_cases():
    """Broadcast, shared-randomness broadcast and random mixtures with
    non-uniform weights, trees with unreachable branches, and decoded files
    whose trees share leaves and subtrees."""
    rng = random.Random(23)
    cases = []
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 4)):
        inst = GhzInstance(n=n, k=k)
        cases.append(MixedProtocol(components=((broadcast_strategy(inst), F(1)),)))
        cases.append(broadcast_strategy_mixed(inst))
    for _ in range(15):
        n, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
        cases.append(random_mixed_protocol(rng, n, k))
    by_shape = {}
    for tree in invariant_trees():
        by_shape.setdefault((tree.n, tree.k), []).append(tree)
    for trees in by_shape.values():
        chosen = trees[-3:]  # the repeated-speaker trees have unreachable leaves
        raw = [rng.randint(1, 9) for _ in chosen]
        cases.append(
            MixedProtocol(components=tuple((t, F(r, sum(raw))) for t, r in zip(chosen, raw)))
        )
    cases.append(
        mixed_protocol_from_json(
            json.loads(dumps(mixed_protocol_to_json(broadcast_strategy_mixed(GhzInstance(n=4, k=2)))))
        )
    )
    return cases


def test_detector_model_matches_the_per_component_conversion():
    cases = conversion_cases()
    assert any(len(t.leaf_input_sets()) < len(t.leaves()) for mp in cases for t, _ in mp.components)
    assert any(len({w for _, w in mp.components}) > 1 for mp in cases)
    for mp in cases:
        assert to_detector_model(mp) == reference_detector_model(mp)


def test_induced_metrics_match_the_distribution_route():
    rng = random.Random(29)
    cases = [(mp, ghz_problem(GhzInstance(n=mp.n, k=mp.k))) for mp in conversion_cases()]
    cases += [
        (random_mixed_protocol(rng, n, k), uniform_problem(n, k))
        for n, k in ((2, 2), (3, 2), (2, 3))
        for _ in range(3)
    ]
    # trees with unreachable leaves, mixed with weights over the coprime
    # denominators 3, 5, 7 and 105, on the GHZ and on the uniform target
    coprime = (F(1, 3), F(1, 5), F(1, 7), F(34, 105))
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for problem in (ghz_problem(GhzInstance(n=n, k=k)), uniform_problem(n, k)):
            trees = [repeated_speaker_tree(rng, n, k) for _ in coprime]
            cases.append((MixedProtocol(components=tuple(zip(trees, coprime))), problem))
    positive = 0
    for mp, problem in cases:
        induced = induced_distribution(mp, problem)
        eta_n, eps = induced_metrics(mp, problem)
        assert eta_n == detection_efficiency(induced, problem).eta_n == 1
        assert eps == error_probability(induced, problem)
        positive += eps > 0
    assert positive >= 9


def test_induced_metrics_refuse_a_shape_mismatch():
    mp = MixedProtocol(components=((broadcast_strategy(GhzInstance(n=3, k=2)), F(1)),))
    problem = ghz_problem(GhzInstance(n=4, k=2))
    with pytest.raises(ArityMismatch) as expected:
        induced_distribution(mp, problem)
    with pytest.raises(ArityMismatch) as got:
        induced_metrics(mp, problem)
    assert str(got.value) == str(expected.value) == "protocol is (3, 2) but problem is (4, 2)"


def node_counts(tree):
    """(distinct node and leaf objects, node and leaf occurrences of the
    expanded tree)."""
    seen, expanded, stack = set(), 0, [tree.root]
    while stack:
        v = stack.pop()
        seen.add(id(v))
        expanded += 1
        if isinstance(v, Node):
            stack.extend(e.child for e in v.edges)
    return len(seen), expanded


def dag_cases():
    """``conversion_cases`` plus decoded files whose trees are DAGs: the
    broadcast at n=5, k=4 has 27 distinct nodes for 1,365 expanded ones, and
    the shared-randomness broadcast at n=4, k=4 has 152 for 2,728."""
    broadcast = broadcast_strategy(GhzInstance(n=5, k=4))
    decoded = tree_from_json(json.loads(dumps(tree_to_json(broadcast))))
    assert node_counts(decoded) == (27, 1365)
    mixed = broadcast_strategy_mixed(GhzInstance(n=4, k=4))
    decoded_mixed = mixed_protocol_from_json(json.loads(dumps(mixed_protocol_to_json(mixed))))
    counts = [node_counts(t) for t, _ in decoded_mixed.components]
    assert tuple(map(sum, zip(*counts))) == (152, 2728)
    return [*conversion_cases(), MixedProtocol(components=((decoded, F(1)),)), decoded_mixed]


def test_per_leaf_costs_match_the_expanded_walk():
    cases = dag_cases()
    assert any(len(t.leaf_input_sets()) < len(t.leaves()) for mp in cases for t, _ in mp.components)
    for mp in cases:
        for tree, _ in mp.components:
            details = cost_details(tree)
            assert details.per_leaf == tuple(bits for _, _, bits in tree._walk())
            assert details.worst_case == max(details.per_leaf)


def test_distinct_leaves_are_the_expanded_walks_leaves_in_first_seen_order():
    for mp in dag_cases():
        trees = [t for t, _ in mp.components]
        expanded = [leaf for t in trees for leaf, _, _ in t._walk()]
        first_seen = list({id(leaf): leaf for leaf in expanded}.values())
        got = distinct_leaves(trees)
        assert [id(leaf) for leaf in got] == [id(leaf) for leaf in first_seen]


def test_detector_model_of_dag_files_matches_the_reference():
    # the decoded DAG files; the other cases are the per-component conversion test's
    for mp in dag_cases()[-2:]:
        assert to_detector_model(mp) == reference_detector_model(mp)


def test_unreachable_paths_are_still_charged():
    # party 0 splits {0}, {1} twice in a row; below the second split's {1}
    # edge (unreachable after the first split's {0}) party 1 splits again.
    # The benchmark's oracle charges such paths too, so both keep doing so
    # until they change together.
    split_1 = Node(
        party=1,
        edges=(
            Edge(inputs=frozenset({0}), child=leaf(((0, 0), (0, 0)))),
            Edge(inputs=frozenset({1}), child=leaf(((0, 0), (1, 1)))),
        ),
    )
    again = Node(
        party=0,
        edges=(
            Edge(inputs=frozenset({0}), child=leaf(((0, 0), (0, 0)))),
            Edge(inputs=frozenset({1}), child=split_1),
        ),
    )
    root = Node(
        party=0,
        edges=(
            Edge(inputs=frozenset({0}), child=again),
            Edge(inputs=frozenset({1}), child=leaf(((1, 1), (0, 0)))),
        ),
    )
    tree = ProtocolTree(n=2, k=2, root=root)
    details = cost_details(tree)
    assert details.per_leaf == (2, 3, 3, 1)
    assert details.worst_case == 3
    mp = MixedProtocol(components=((tree, F(1)),))
    assert mixed_lhv_metrics(to_detector_model(mp), uniform_problem(2, 2)).eta_n == F(1, 8)


def test_cost_and_leaves_of_a_chain_deeper_than_the_recursion_limit():
    # single-edge nodes charge nothing; the split at the bottom charges 1 bit
    both = frozenset({0, 1})
    v = Node(
        party=0,
        edges=(
            Edge(inputs=frozenset({0}), child=leaf(((0, 0),))),
            Edge(inputs=frozenset({1}), child=leaf(((1, 1),))),
        ),
    )
    for _ in range(3000):
        v = Node(party=0, edges=(Edge(inputs=both, child=v),))
    tree = ProtocolTree(n=1, k=2, root=v)
    assert cost_details(tree) == CostReport(worst_case=1, per_leaf=(1, 1))
    assert len(distinct_leaves([tree])) == 2


def first_leaf(tree):
    v = tree.root
    while isinstance(v, Node):
        v = v.edges[0].child
    return v


def with_first_leaf(tree, new_leaf):
    """A copy of ``tree`` whose first path ends in ``new_leaf``: the nodes on
    that path are copied, everything else is shared with ``tree``."""
    path, v = [], tree.root
    while isinstance(v, Node):
        path.append(v)
        v = v.edges[0].child
    for node in reversed(path):
        head = Edge(inputs=node.edges[0].inputs, child=new_leaf)
        new_leaf = Node(party=node.party, edges=(head, *node.edges[1:]))
    return ProtocolTree(n=tree.n, k=tree.k, root=new_leaf)


def test_equal_dags_compare_once_per_pair_of_nodes(monkeypatch):
    # 4^10 paths through 76 distinct built nodes and fewer decoded ones
    tree = broadcast_strategy(GhzInstance(n=10, k=4))
    decoded = tree_from_json(tree_to_json(tree))
    assert node_counts(decoded)[0] < node_counts(tree)[0] == 76
    compared = []
    leaf_eq = Leaf.__eq__
    monkeypatch.setattr(Leaf, "__eq__", lambda a, b: compared.append(1) or leaf_eq(a, b))
    assert decoded == tree and tree == decoded
    assert hash(decoded) == hash(tree)
    assert 0 < len(compared) <= 2 * 76 * 76  # once per pair of leaves, not per path

    # one deep leaf with a table entry flipped, at the end of a path of copied nodes
    tables = first_leaf(tree).lhv.tables
    assert with_first_leaf(tree, leaf(tables)) == decoded
    flipped = [list(t) for t in tables]
    flipped[-1][0] ^= 1
    changed = with_first_leaf(tree, leaf(flipped))
    assert changed != tree and changed != decoded and decoded != changed
