"""Property-based tests of the paper's core invariants over randomized queries.

Hypothesis generates random acyclic (tree-shaped) join queries with random
data; for each instance the tests check the properties §2.2/§3 prove:

* every execution mode produces the same result;
* the result is independent of the join order;
* after an exact (Yannakakis) reduction over the LargestRoot tree, every
  surviving tuple participates in the output (full reduction), and every
  safe intermediate is bounded by the output size;
* the Bloom-filter reduction keeps a superset of the exact reduction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    ExecutionMode,
    ExecutionOptions,
    JoinCondition,
    QuerySpec,
    RelationRef,
)
from repro.core import is_alpha_acyclic, is_join_tree, largest_root
from repro.optimizer import generate_left_deep_plans
from repro.plan.join_plan import JoinPlan


EVERY_PASS = ExecutionOptions()


@st.composite
def tree_query_instances(draw):
    """A random tree-shaped natural-join query plus random table data.

    Relation i > 0 joins a random earlier relation j on attribute ``a{j}``;
    each relation also has its own attribute ``a{i}`` so later relations can
    attach to it.  The result is always α-acyclic.
    """
    num_relations = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    domain = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(seed)

    parents = {i: draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, num_relations)}
    sizes = [int(rng.integers(5, 60)) for _ in range(num_relations)]

    db = Database()
    for i in range(num_relations):
        columns = {f"a{i}": rng.integers(0, domain, sizes[i])}
        if i in parents.values():
            pass  # own attribute already present
        parent = parents.get(i)
        if parent is not None:
            columns[f"a{parent}"] = rng.integers(0, domain, sizes[i])
        db.register_dataframe(f"table_{i}", columns)

    relations = tuple(RelationRef(f"r{i}", f"table_{i}") for i in range(num_relations))
    joins = tuple(
        JoinCondition(f"r{i}", f"a{parents[i]}", f"r{parents[i]}", f"a{parents[i]}")
        for i in range(1, num_relations)
    )
    query = QuerySpec(name=f"random_tree_{seed}", relations=relations, joins=joins)
    return db, query


@given(tree_query_instances())
@settings(max_examples=25, deadline=None)
def test_all_modes_agree_on_random_acyclic_queries(instance):
    db, query = instance
    counts = {
        mode: db.execute(query, mode=mode).aggregates["count_star"] for mode in ExecutionMode
    }
    assert len(set(counts.values())) == 1, counts


@given(tree_query_instances(), st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_result_independent_of_join_order(instance, seed):
    db, query = instance
    graph = db.join_graph(query)
    plans = generate_left_deep_plans(graph, 4, seed=seed)
    counts = set()
    for plan in plans:
        for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
            counts.add(db.execute(query, mode=mode, plan=plan).aggregates["count_star"])
    assert len(counts) == 1


@given(tree_query_instances())
@settings(max_examples=25, deadline=None)
def test_largest_root_produces_join_tree_on_random_acyclic_queries(instance):
    db, query = instance
    graph = db.join_graph(query)
    assert is_alpha_acyclic(graph)
    tree = largest_root(graph)
    assert is_join_tree(tree)
    assert tree.root == graph.largest_relation()


@given(tree_query_instances())
@settings(max_examples=20, deadline=None)
def test_exact_reduction_is_full_and_bloom_is_superset(instance):
    """Full reduction: with the exact transfer phase, if the output is empty every
    relation is reduced to empty; otherwise every reduced relation is non-empty.
    Bloom reduction never drops more tuples than the exact one."""
    db, query = instance
    exact = db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=EVERY_PASS)
    bloom = db.execute(query, mode=ExecutionMode.RPT, options=EVERY_PASS)
    output = exact.stats.output_rows
    for alias in query.aliases:
        exact_rows = exact.stats.reduced_rows[alias]
        bloom_rows = bloom.stats.reduced_rows[alias]
        assert bloom_rows >= exact_rows
        if output == 0:
            assert exact_rows == 0
        else:
            assert exact_rows > 0


@given(tree_query_instances())
@settings(max_examples=20, deadline=None)
def test_every_pass_fully_reduces_exact_and_rpt_keeps_a_superset(instance):
    """With skipping off, the guarantee itself — checked on the surviving
    rows, not on counts.  Exact transfer leaves every relation *fully
    reduced*: its semi-join with each join-tree neighbour is the identity
    (pairwise consistency, which on an α-acyclic query is global
    consistency).  RPT keeps a superset of those rows, and where every
    step ran exact or from an empty source (which keeps no row) — the
    executor's rule, not an option — RPT's reduction is the full one too."""
    db, query = instance
    exact = db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=EVERY_PASS)
    rpt = db.execute(query, mode=ExecutionMode.RPT, options=EVERY_PASS)
    for join in query.joins:
        left = exact.relations[join.left_alias].key_values(join.left_column)
        right = exact.relations[join.right_alias].key_values(join.right_column)
        assert np.isin(left, right).all() and np.isin(right, left).all(), join
    steps = [step for step in rpt.stats.transfer_steps if not step.skipped]
    all_exact = all(step.downgraded_exact or step.build_rows == 0 for step in steps)
    for alias in query.aliases:
        exact_rows = set(exact.relations[alias].row_ids().tolist())
        rpt_rows = set(rpt.relations[alias].row_ids().tolist())
        assert exact_rows <= rpt_rows, alias
        if all_exact:
            assert exact_rows == rpt_rows, alias


@given(tree_query_instances())
@settings(max_examples=20, deadline=None)
def test_yannakakis_intermediates_bounded_by_output(instance):
    """On the exactly-reduced instance, every intermediate of a connected
    (Cartesian-free) left-deep order over a weight-1 tree query is at most |OUT|."""
    db, query = instance
    graph = db.join_graph(query)
    plans = generate_left_deep_plans(graph, 3, seed=7)
    for plan in plans:
        result = db.execute(
            query, mode=ExecutionMode.YANNAKAKIS, plan=plan, options=EVERY_PASS
        )
        out = result.stats.output_rows
        for step in result.stats.join_steps[:-1]:
            assert step.output_rows <= out


@given(tree_query_instances())
@settings(max_examples=15, deadline=None)
def test_pruning_does_not_change_results(instance):
    from repro import ExecutionOptions
    from repro.exec import TransferOptions

    db, query = instance
    pruned = db.execute(
        query, mode=ExecutionMode.RPT,
        options=ExecutionOptions(transfer=TransferOptions(prune_trivial_semijoins=True)),
    )
    unpruned = db.execute(
        query, mode=ExecutionMode.RPT,
        options=ExecutionOptions(transfer=TransferOptions(prune_trivial_semijoins=False)),
    )
    assert pruned.aggregates == unpruned.aggregates
