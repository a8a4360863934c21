"""Plan identity: the bitset DPccp search returns exactly the plans the old
``frozenset`` search (``reference_join_order``) returns.

Equality is on :class:`JoinPlan` structure — which relations, in which tree,
on which side of every join — not on cost, so a flipped tie fails.  Also here:
the estimator's mask form against the old ``join_cardinality``, the DPccp
pair-count closed forms, and the fail-fast connectivity check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_join_order import (
    ReferenceJoinOrderOptimizer,
    reference_join_cardinality,
    reference_plan_cardinalities,
)

from repro import JoinCondition, QuerySpec, RelationRef
from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.optimizer import CardinalityEstimator, JoinOrderOptimizer, JoinOrderOptions
from repro.optimizer.cost_model import CostModel
from repro.sql import compile_statement
from repro.storage.catalog import TableStatistics
from repro.workloads import sqlfiles


@dataclass
class _StatsCatalog:
    """The one thing the estimator asks of a catalog: per-table statistics."""

    stats: Dict[str, TableStatistics]

    def statistics(self, table: str) -> TableStatistics:
        return self.stats[table]


Edge = Tuple[int, int]


def _shape_edges(shape: str, n: int, rng: random.Random) -> List[Edge]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    if shape == "clique":
        return list(combinations(range(n), 2))
    # Random tree plus a few extra edges.
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    spare = [e for e in combinations(range(n), 2) if e not in edges]
    return edges + rng.sample(spare, min(len(spare), rng.randrange(0, 4)))


def _instance(
    shape: str, n: int, seed: int, tied: bool, shared_columns: bool
) -> Tuple[JoinGraph, CardinalityEstimator]:
    """A connected join graph of ``n`` relations with made-up statistics.

    Aliases are shuffled so bit order (sorted aliases) differs from the order
    of ``query.relations``.  ``shared_columns`` draws join columns from a pool
    of two, so attribute classes span several edges (and imply more);
    otherwise every edge is its own class.  ``tied`` gives every relation the
    same size and distinct counts — equal-cost splits everywhere.
    """
    rng = random.Random(seed)
    aliases = [f"r{i}" for i in range(n)]
    rng.shuffle(aliases)
    joins = []
    for u, v in _shape_edges(shape, n, rng):
        column = f"k{rng.randrange(2)}" if shared_columns else f"e{u}_{v}"
        joins.append(JoinCondition(aliases[u], column, aliases[v], column))
    relations = tuple(RelationRef(alias, f"t_{alias}") for alias in aliases)
    query = QuerySpec(name=f"{shape}{n}_{seed}", relations=relations, joins=tuple(joins))
    stats = {}
    for alias in aliases:
        rows = 1000 if tied else rng.choice([1, 10, 10, 500, 500, 20_000, 3_000_000])
        columns = {join.left_column for join in joins if alias in (join.left_alias, join.right_alias)}
        stats[f"t_{alias}"] = TableStatistics(
            num_rows=rows,
            distinct_counts={c: 100 if tied else rng.choice([1, 7, 7, rows]) for c in columns},
        )
    graph = JoinGraph.from_query(query, {a: stats[f"t_{a}"].num_rows for a in aliases})
    return graph, CardinalityEstimator(_StatsCatalog(stats), query, graph)


def _assert_same_plan(graph, estimator, options) -> JoinOrderOptimizer:
    optimizer = JoinOrderOptimizer(graph, estimator, options)
    expected = ReferenceJoinOrderOptimizer(graph, estimator, options).optimize()
    assert optimizer.optimize() == expected
    return optimizer


# ---------------------------------------------------------------------------
# (i) every checked-in .sql file
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sql_instances():
    """(stem, graph, estimator) for every file, over small generated data."""
    databases = {}
    instances = []
    for stem in sorted(sqlfiles.available()):
        db = sqlfiles.database_of(stem, databases, scale=0.05, seed=1)
        query = compile_statement(sqlfiles.sql_text(stem), db.catalog).query
        graph = db.join_graph(query)
        instances.append((stem, graph, CardinalityEstimator(db.catalog, query, graph)))
    yield instances
    for db in databases.values():
        db.close()


@pytest.mark.parametrize("left_deep_only", [False, True])
def test_sql_corpus_plans_identical(sql_instances, left_deep_only):
    assert len(sql_instances) == len(sqlfiles.available())
    options = JoinOrderOptions(left_deep_only=left_deep_only)
    for stem, graph, estimator in sql_instances:
        expected = ReferenceJoinOrderOptimizer(graph, estimator, options).optimize()
        assert JoinOrderOptimizer(graph, estimator, options).optimize() == expected, stem


def test_sql_corpus_cardinalities_identical(sql_instances):
    for stem, graph, estimator in sql_instances:
        order = list(graph.aliases)
        got = estimator.estimate_plan_cardinalities(order)
        assert got == reference_plan_cardinalities(estimator, order), stem


# ---------------------------------------------------------------------------
# (ii) generated connected graphs
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(["chain", "star", "cycle", "clique", "tree+"]),
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    tied=st.booleans(),
    shared_columns=st.booleans(),
    left_deep_only=st.booleans(),
    probe_weight=st.sampled_from([0.1, 0.0, 2.0]),
)
def test_generated_graphs_plans_identical(
    shape, n, seed, tied, shared_columns, left_deep_only, probe_weight
):
    graph, estimator = _instance(shape, n, seed, tied, shared_columns)
    options = JoinOrderOptions(
        left_deep_only=left_deep_only, cost_model=CostModel(probe_weight=probe_weight)
    )
    _assert_same_plan(graph, estimator, options)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["chain", "star", "cycle", "clique", "tree+"]),
    n=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
    shared_columns=st.booleans(),
)
def test_join_cardinality_matches_reference_on_every_split(shape, n, seed, shared_columns):
    graph, estimator = _instance(shape, n, seed, tied=False, shared_columns=shared_columns)
    aliases = graph.sorted_aliases
    for bits in range(1, (1 << n) - 1):
        left = frozenset(a for i, a in enumerate(aliases) if bits >> i & 1)
        right = frozenset(aliases) - left
        got = estimator.join_cardinality(left, right, 1234.5, 67.0)
        assert got == reference_join_cardinality(estimator, left, right, 1234.5, 67.0)


# ---------------------------------------------------------------------------
# (iii) beyond the DP limit: greedy
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["chain", "star", "cycle", "tree+"])
@pytest.mark.parametrize("tied", [False, True])
def test_greedy_plans_identical_on_twelve_relations(shape, tied):
    for seed in range(5):
        graph, estimator = _instance(shape, 12, seed, tied, shared_columns=seed % 2 == 1)
        optimizer = _assert_same_plan(graph, estimator, JoinOrderOptions())
        assert optimizer.pairs_considered > 0


def test_greedy_identical_below_a_lowered_limit():
    graph, estimator = _instance("tree+", 9, seed=7, tied=False, shared_columns=True)
    _assert_same_plan(graph, estimator, JoinOrderOptions(dp_relation_limit=4))


# ---------------------------------------------------------------------------
# Pair counts: the DP costs csg-cmp pairs only
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", range(2, 11))
def test_chain_costs_n_cubed_minus_n_over_three_pairs(n):
    graph, estimator = _instance("chain", n, seed=0, tied=False, shared_columns=False)
    optimizer = JoinOrderOptimizer(graph, estimator)
    optimizer.optimize()
    assert optimizer.pairs_considered == (n**3 - n) // 3


@pytest.mark.parametrize("n", range(2, 11))
def test_star_costs_n_minus_one_times_two_to_the_n_minus_one_pairs(n):
    graph, estimator = _instance("star", n, seed=0, tied=False, shared_columns=False)
    optimizer = JoinOrderOptimizer(graph, estimator)
    optimizer.optimize()
    assert optimizer.pairs_considered == (n - 1) * 2 ** (n - 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), seed=st.integers(min_value=0, max_value=10_000))
def test_pair_count_equals_brute_force_count(n, seed):
    """On any graph: ordered (connected, connected, adjacent, disjoint) splits."""
    graph, estimator = _instance("tree+", n, seed, tied=False, shared_columns=False)
    adjacency = graph.adjacency_masks

    def connected(mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adjacency[low.bit_length() - 1] & mask & ~seen
            seen |= new
            frontier |= new
        return seen == mask

    def adjacent(left: int, right: int) -> bool:
        return any(adjacency[i] & right for i in range(n) if left >> i & 1)

    expected = 0
    for subset in range(1, 1 << n):
        left = (subset - 1) & subset
        while left:
            right = subset ^ left
            if connected(left) and connected(right) and adjacent(left, right):
                expected += 1
            left = (left - 1) & subset
    optimizer = JoinOrderOptimizer(graph, estimator)
    optimizer.optimize()
    assert optimizer.pairs_considered == expected


# ---------------------------------------------------------------------------
# Disconnected graphs fail before any enumeration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n, limit", [(6, 10), (6, 3)], ids=["dp", "greedy"])
def test_disconnected_graph_fails_fast(n, limit):
    relations = tuple(RelationRef(f"r{i}", f"t{i}") for i in range(n))
    # Two chains: r0-r1-r2 and r3-r4-r5.
    joins = tuple(
        JoinCondition(f"r{i}", "k", f"r{i + 1}", "k") for i in range(n - 1) if i != n // 2 - 1
    )
    query = QuerySpec(name="two_islands", relations=relations, joins=joins)
    stats = {f"t{i}": TableStatistics(num_rows=10, distinct_counts={"k": 10}) for i in range(n)}
    graph = JoinGraph.from_query(query, {f"r{i}": 10 for i in range(n)})
    estimator = CardinalityEstimator(_StatsCatalog(stats), query, graph)
    optimizer = JoinOrderOptimizer(graph, estimator, JoinOrderOptions(dp_relation_limit=limit))
    with pytest.raises(OptimizerError, match="disconnected join graph"):
        optimizer.optimize()
    assert optimizer.pairs_considered == 0
