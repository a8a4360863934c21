"""Unit tests for LargestRoot, Small2Large, and transfer schedule derivation."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    JoinGraph,
    TransferPass,
    TransferSchedule,
    TransferStep,
    is_join_tree,
    is_maximum_spanning_tree,
    largest_root,
    largest_root_random,
    schedule_from_transfer_graph,
    schedule_from_tree,
    small2large,
)
from repro.core.largest_root import grow_tree, paper_pick
from repro.errors import PlanError
from repro.query import JoinCondition, QuerySpec, RelationRef


def _graph(relations, joins, sizes) -> JoinGraph:
    query = QuerySpec(
        name="q",
        relations=tuple(RelationRef(a, f"table_{a}") for a in relations),
        joins=tuple(JoinCondition(*j) for j in joins),
    )
    return JoinGraph.from_query(query, sizes)


@pytest.fixture()
def job3a_graph() -> JoinGraph:
    """The Figure 1 example: movie_keyword / movie_info / title / keyword."""
    return _graph(
        ["mk", "mi", "t", "k"],
        [("mk", "kid", "k", "id"), ("mk", "mid", "t", "id"), ("mi", "mid", "t", "id")],
        {"mk": 4_500_000, "mi": 15_000_000, "t": 2_500_000, "k": 134_000},
    )


@pytest.fixture()
def figure2_graph() -> JoinGraph:
    """Figure 2: R(A,B) ⋈ S(A,C) ⋈ T(B,D) with |R| < |S| < |T|."""
    return _graph(
        ["r", "s", "t"],
        [("r", "a", "s", "a"), ("r", "b", "t", "b")],
        {"r": 100, "s": 200, "t": 400},
    )


class TestLargestRoot:
    def test_root_is_largest_relation(self, job3a_graph):
        tree = largest_root(job3a_graph)
        assert tree.root == "mi"

    def test_produces_join_tree(self, job3a_graph, figure2_graph):
        for graph in (job3a_graph, figure2_graph):
            tree = largest_root(graph)
            assert is_maximum_spanning_tree(tree)
            assert is_join_tree(tree)

    def test_figure1_tree_shape(self, job3a_graph):
        """The paper's Figure 1b: mi at the root, mk below it, k and t below mk."""
        tree = largest_root(job3a_graph)
        assert tree.parent_of("mk") == "mi"
        assert tree.parent_of("k") == "mk"
        assert tree.parent_of("t") == "mk"

    def test_root_override(self, job3a_graph):
        tree = largest_root(job3a_graph, root="t")
        assert tree.root == "t"
        assert is_join_tree(tree)

    def test_unknown_root_rejected(self, job3a_graph):
        with pytest.raises(PlanError, match="not a relation of the join graph"):
            largest_root(job3a_graph, root="zz")
        with pytest.raises(PlanError, match="not a relation of the join graph"):
            largest_root_random(job3a_graph, random.Random(0), root="zz")

    def test_disconnected_graph_rejected(self):
        graph = _graph(["a", "b", "c"], [("a", "x", "b", "x")], {"a": 1, "b": 2, "c": 3})
        with pytest.raises(PlanError):
            largest_root(graph)

    def test_single_relation(self):
        graph = _graph(["a"], [], {"a": 10})
        tree = largest_root(graph)
        assert tree.root == "a"
        assert tree.edges == ()

    def test_cyclic_graph_still_spanning_tree(self):
        graph = _graph(
            ["a", "b", "c"],
            [("a", "x", "b", "x"), ("b", "y", "c", "y"), ("a", "z", "c", "z")],
            {"a": 10, "b": 20, "c": 30},
        )
        tree = largest_root(graph)
        assert tree.nodes == frozenset({"a", "b", "c"})
        assert len(tree.edges) == 2
        assert tree.root == "c"

    def test_randomized_variant_keeps_largest_root(self, job3a_graph):
        rng = random.Random(0)
        for _ in range(10):
            tree = largest_root_random(job3a_graph, rng)
            assert tree.root == "mi"
            assert tree.nodes == frozenset(job3a_graph.aliases)
            # All edges have weight 1 here, so every spanning tree is a join tree.
            assert is_join_tree(tree)

    def test_randomized_variant_repeats_per_seed(self, job3a_graph):
        for seed in range(5):
            first = largest_root_random(job3a_graph, random.Random(seed))
            second = largest_root_random(job3a_graph, random.Random(seed))
            assert (first.root, first.edges) == (second.root, second.edges)


class TestGrowTree:
    """The one growth loop behind LargestRoot, its random variant and
    SafeSubjoin's seeded restart."""

    def test_paper_pick_reproduces_largest_root_from_every_root(self, job3a_graph, figure2_graph):
        for graph in (job3a_graph, figure2_graph):
            for root in graph.aliases:
                grown = grow_tree(graph, root, paper_pick)
                expected = largest_root(graph, root=root)
                assert (grown.root, grown.edges) == (expected.root, expected.edges)

    def test_pick_sees_only_frontier_entries(self, job3a_graph):
        in_tree = {"mi"}
        calls = []

        def recording_pick(graph, frontier):
            for edge, outside in frontier:
                assert outside not in in_tree
                assert edge.other(outside) in in_tree
            calls.append(len(frontier))
            chosen = paper_pick(graph, frontier)
            in_tree.add(chosen[1])
            return chosen

        tree = grow_tree(job3a_graph, "mi", recording_pick)
        assert len(calls) == len(job3a_graph.aliases) - 1
        assert tree.nodes == frozenset(job3a_graph.aliases)

    def test_seed_edges_are_kept(self, job3a_graph):
        sub_tree = largest_root(job3a_graph.subgraph(["mk", "t"]))
        assert sub_tree.root == "mk"
        tree = grow_tree(job3a_graph, "mk", paper_pick, seed=sub_tree.edges)
        assert tree.root == "mk"
        assert tree.parent_of("t") == "mk"
        assert tree.nodes == frozenset(job3a_graph.aliases)

    def test_disconnected_graph_stops_the_loop(self):
        graph = _graph(["a", "b", "c"], [("a", "x", "b", "x")], {"a": 1, "b": 2, "c": 3})
        with pytest.raises(PlanError, match="became disconnected"):
            grow_tree(graph, "b", paper_pick)


class TestSmall2Large:
    def test_edges_point_small_to_large(self, figure2_graph):
        transfer_graph = small2large(figure2_graph)
        directions = {(e.source, e.target) for e in transfer_graph.edges}
        assert directions == {("r", "s"), ("r", "t")}

    def test_topological_order_prefers_small_first(self, figure2_graph):
        order = small2large(figure2_graph).topological_order()
        assert order[0] == "r"
        assert set(order) == {"r", "s", "t"}

    def test_figure2_schedule_never_connects_s_and_t(self, figure2_graph):
        """The paper's Figure 2 failure: S and T never exchange filters."""
        schedule = schedule_from_transfer_graph(small2large(figure2_graph))
        pairs = {(s.source, s.target) for s in schedule}
        assert ("s", "t") not in pairs and ("t", "s") not in pairs

    def test_largest_root_schedule_connects_s_and_t_transitively(self, figure2_graph):
        """RPT routes S's filter to T through R: forward s->r then backward r->t."""
        tree = largest_root(figure2_graph)
        schedule = schedule_from_tree(tree)
        forward_targets_of_s = [s.target for s in schedule.forward_steps if s.source == "s"]
        assert "r" in forward_targets_of_s
        backward = [(s.source, s.target) for s in schedule.backward_steps]
        assert ("r", "t") in backward or ("r", "s") in backward


class TestSchedules:
    def test_tree_schedule_matches_figure1(self, job3a_graph):
        """Forward: mk⋉k, mk⋉t, mi⋉mk. Backward: mk⋉mi, k⋉mk, t⋉mk."""
        schedule = schedule_from_tree(largest_root(job3a_graph))
        forward = [(s.source, s.target) for s in schedule.forward_steps]
        backward = [(s.source, s.target) for s in schedule.backward_steps]
        assert set(forward) == {("k", "mk"), ("t", "mk"), ("mk", "mi")}
        assert forward[-1] == ("mk", "mi")  # mk's own filter is built after it was reduced
        assert set(backward) == {("mi", "mk"), ("mk", "k"), ("mk", "t")}
        assert backward[0] == ("mi", "mk")

    def test_schedule_pass_split(self, job3a_graph):
        schedule = schedule_from_tree(largest_root(job3a_graph))
        assert len(schedule.forward_steps) == 3
        assert len(schedule.backward_steps) == 3
        assert schedule.num_steps == 6
        assert all(s.pass_ is TransferPass.FORWARD for s in schedule.forward_steps)
        assert all(s.pass_ is TransferPass.BACKWARD for s in schedule.backward_steps)

    def test_every_non_root_relation_reduced_in_both_passes(self, job3a_graph):
        tree = largest_root(job3a_graph)
        schedule = schedule_from_tree(tree)
        forward_targets = {s.target for s in schedule.forward_steps}
        backward_targets = {s.target for s in schedule.backward_steps}
        non_leaves = {n for n in tree.nodes if tree.children_of(n)}
        assert forward_targets == non_leaves
        assert backward_targets == set(tree.nodes) - {tree.root}

    def test_schedule_helpers(self):
        forward = TransferStep("a", "b", ("x",), TransferPass.FORWARD)
        backward = TransferStep("b", "a", ("x",), TransferPass.BACKWARD)
        schedule = TransferSchedule(steps=(forward, backward))
        assert schedule.has_backward_pass
        assert not schedule.without_backward_pass().has_backward_pass

    def test_without_backward_pass(self, job3a_graph):
        schedule = schedule_from_tree(largest_root(job3a_graph)).without_backward_pass()
        assert schedule.backward_steps == ()
        assert len(schedule.forward_steps) == 3

    def test_transfer_graph_schedule_covers_all_edges_twice(self, job3a_graph):
        transfer_graph = small2large(job3a_graph)
        schedule = schedule_from_transfer_graph(transfer_graph)
        assert len(schedule.forward_steps) == len(transfer_graph.edges)
        assert len(schedule.backward_steps) == len(transfer_graph.edges)

    def test_relations_reduced(self, job3a_graph):
        schedule = schedule_from_tree(largest_root(job3a_graph))
        assert schedule.relations_reduced() == frozenset(job3a_graph.aliases)
