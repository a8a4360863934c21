"""Unit tests for join plans, random plan generation, and the join-order optimizer."""

from __future__ import annotations

import random

import pytest

from repro.core import JoinGraph
from repro.errors import OptimizerError, PlanError
from repro.optimizer import (
    CardinalityEstimator,
    JoinOrderOptimizer,
    JoinOrderOptions,
    generate_bushy_plans,
    generate_left_deep_plans,
    iter_all_left_deep_orders,
    paper_sample_size,
    random_bushy_plan,
    random_left_deep_order,
)
from repro.plan.join_plan import (
    JoinNode,
    JoinPlan,
    LeafNode,
    plan_avoids_cartesian_products,
    validate_plan_for_query,
)
from repro.query import JoinCondition, QuerySpec, RelationRef


def _chain_graph(n: int, sizes=None) -> JoinGraph:
    relations = tuple(RelationRef(f"r{i}", f"t{i}") for i in range(n))
    joins = tuple(JoinCondition(f"r{i}", "k", f"r{i+1}", "k2") for i in range(n - 1))
    query = QuerySpec(name=f"chain{n}", relations=relations, joins=joins)
    return JoinGraph.from_query(query, sizes or {f"r{i}": (i + 1) * 100 for i in range(n)})


class TestJoinPlan:
    def test_from_left_deep_roundtrip(self):
        plan = JoinPlan.from_left_deep(("a", "b", "c", "d"))
        assert plan.is_left_deep()
        assert plan.left_deep_order() == ("a", "b", "c", "d")
        assert plan.num_joins == 3
        assert plan.aliases == frozenset({"a", "b", "c", "d"})

    def test_single_relation_plan(self):
        plan = JoinPlan.single("a")
        assert plan.num_joins == 0
        assert plan.is_left_deep()
        assert plan.left_deep_order() == ("a",)

    def test_bushy_plan_not_left_deep(self):
        bushy = JoinPlan(root=JoinNode(
            left=JoinNode(LeafNode("a"), LeafNode("b")),
            right=JoinNode(LeafNode("c"), LeafNode("d")),
        ))
        assert not bushy.is_left_deep()
        with pytest.raises(PlanError):
            bushy.left_deep_order()

    def test_empty_order_rejected(self):
        with pytest.raises(PlanError):
            JoinPlan.from_left_deep(())

    def test_validate_plan_for_query(self):
        plan = JoinPlan.from_left_deep(("a", "b"))
        validate_plan_for_query(plan, ["a", "b"])
        with pytest.raises(PlanError):
            validate_plan_for_query(plan, ["a", "b", "c"])
        with pytest.raises(PlanError):
            validate_plan_for_query(plan, ["a"])
        duplicate = JoinPlan(root=JoinNode(LeafNode("a"), LeafNode("a")))
        with pytest.raises(PlanError):
            validate_plan_for_query(duplicate, ["a", "a"])

    def test_cartesian_detection(self):
        neighbors = {"a": frozenset({"b"}), "b": frozenset({"a", "c"}), "c": frozenset({"b"})}
        good = JoinPlan.from_left_deep(("a", "b", "c"))
        bad = JoinPlan.from_left_deep(("a", "c", "b"))
        assert plan_avoids_cartesian_products(good, neighbors)
        assert not plan_avoids_cartesian_products(bad, neighbors)

    def test_describe(self):
        assert "⋈" in JoinPlan.from_left_deep(("a", "b")).describe()


class TestRandomPlans:
    def test_paper_sample_size_rule(self):
        assert paper_sample_size(3) == 20
        assert paper_sample_size(17) == 1000
        assert paper_sample_size(10) == 70 * 10 - 190
        assert paper_sample_size(2) == 20

    def test_left_deep_orders_avoid_cartesian_products(self):
        graph = _chain_graph(6)
        rng = random.Random(0)
        for _ in range(25):
            order = random_left_deep_order(graph, rng)
            joined = {order[0]}
            for alias in order[1:]:
                assert graph.neighbors(alias) & joined
                joined.add(alias)

    def test_bushy_plans_valid(self):
        graph = _chain_graph(6)
        rng = random.Random(1)
        neighbors = {a: graph.neighbors(a) for a in graph.aliases}
        for _ in range(25):
            plan = random_bushy_plan(graph, rng)
            validate_plan_for_query(plan, graph.aliases)
            assert plan_avoids_cartesian_products(plan, neighbors)

    def test_generators_deterministic_per_seed(self):
        graph = _chain_graph(5)
        a = [p.describe() for p in generate_left_deep_plans(graph, 10, seed=3)]
        b = [p.describe() for p in generate_left_deep_plans(graph, 10, seed=3)]
        assert a == b
        c = [p.describe() for p in generate_bushy_plans(graph, 10, seed=3)]
        d = [p.describe() for p in generate_bushy_plans(graph, 10, seed=3)]
        assert c == d

    def test_unique_generation(self):
        graph = _chain_graph(4)
        plans = generate_left_deep_plans(graph, 8, seed=0, unique=True)
        orders = [p.left_deep_order() for p in plans]
        assert len(orders) == len(set(orders))

    def test_iter_all_left_deep_orders_chain3(self):
        graph = _chain_graph(3)
        orders = list(iter_all_left_deep_orders(graph))
        # Chain r0-r1-r2: valid orders avoid starting pairs (r0, r2).
        assert ("r0", "r1", "r2") in orders
        assert ("r0", "r2", "r1") not in orders
        assert len(orders) == len(set(orders)) == 4

    def test_single_relation(self):
        graph = _chain_graph(1)
        assert random_left_deep_order(graph, random.Random(0)) == ("r0",)
        assert random_bushy_plan(graph, random.Random(0)).aliases == frozenset({"r0"})


class TestCardinalityEstimator:
    def _setup(self):
        from repro.engine.database import Database
        from repro.workloads import tpch

        db = Database()
        tpch.load(db, scale=0.05, seed=0)
        query = tpch.query(3)
        graph = db.join_graph(query)
        estimator = CardinalityEstimator(db.catalog, query, graph)
        return db, query, graph, estimator

    def test_base_cardinalities_positive_and_filtered(self):
        db, query, graph, estimator = self._setup()
        for ref in query.relations:
            estimate = estimator.base_cardinality(ref.alias)
            assert estimate >= 1.0
            assert estimate <= db.catalog.table(ref.table).num_rows + 1

    def test_unknown_alias_raises(self):
        _, _, _, estimator = self._setup()
        with pytest.raises(OptimizerError):
            estimator.base_cardinality("zzz")

    def test_join_cardinality_reasonable(self):
        _, _, _, estimator = self._setup()
        joined = estimator.join_cardinality(
            frozenset({"o"}), frozenset({"l"}),
            estimator.base_cardinality("o"), estimator.base_cardinality("l"),
        )
        assert joined >= 1.0

    def test_prefix_cardinalities(self):
        _, query, _, estimator = self._setup()
        cards = estimator.estimate_plan_cardinalities(list(query.aliases))
        assert len(cards) == len(query.aliases)
        assert all(c >= 1.0 for c in cards)


class TestJoinOrderOptimizer:
    def test_dp_plan_valid_and_cartesian_free(self):
        graph = _chain_graph(5)
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        for i in range(5):
            catalog.register(Table.from_dict(f"t{i}", {"k": list(range((i + 1) * 10)), "k2": list(range((i + 1) * 10))}))
        estimator = CardinalityEstimator(catalog, graph.query, graph)
        plan = JoinOrderOptimizer(graph, estimator).optimize()
        validate_plan_for_query(plan, graph.aliases)
        neighbors = {a: graph.neighbors(a) for a in graph.aliases}
        assert plan_avoids_cartesian_products(plan, neighbors)

    def test_left_deep_only_option(self):
        graph = _chain_graph(5)
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        for i in range(5):
            catalog.register(Table.from_dict(f"t{i}", {"k": list(range((i + 1) * 10)), "k2": list(range((i + 1) * 10))}))
        estimator = CardinalityEstimator(catalog, graph.query, graph)
        plan = JoinOrderOptimizer(
            graph, estimator, JoinOrderOptions(left_deep_only=True)
        ).optimize()
        assert plan.is_left_deep()

    def test_greedy_used_beyond_dp_limit(self):
        graph = _chain_graph(12)
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        for i in range(12):
            catalog.register(Table.from_dict(f"t{i}", {"k": list(range((i + 1) * 5)), "k2": list(range((i + 1) * 5))}))
        estimator = CardinalityEstimator(catalog, graph.query, graph)
        plan = JoinOrderOptimizer(
            graph, estimator, JoinOrderOptions(dp_relation_limit=6)
        ).optimize()
        validate_plan_for_query(plan, graph.aliases)
        neighbors = {a: graph.neighbors(a) for a in graph.aliases}
        assert plan_avoids_cartesian_products(plan, neighbors)

    def test_single_relation_plan(self):
        graph = _chain_graph(1)
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        catalog.register(Table.from_dict("t0", {"k": [1], "k2": [1]}))
        estimator = CardinalityEstimator(catalog, graph.query, graph)
        plan = JoinOrderOptimizer(graph, estimator).optimize()
        assert plan.aliases == frozenset({"r0"})
