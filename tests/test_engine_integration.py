"""Integration tests for the Database façade across all execution modes.

These are the end-to-end correctness tests: for realistic queries over the
fixture databases, every execution mode and every join order must produce
the same aggregate results, and RPT must exhibit the theoretical properties
the paper proves (full reduction, bounded intermediates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ExecutionMode, ExecutionOptions
from repro.engine.database import QueryResult
from repro.errors import PlanError
from repro.exec import TransferOptions
from repro.optimizer import generate_bushy_plans, generate_left_deep_plans
from repro.plan.join_plan import JoinPlan
from repro.query import JoinCondition, QuerySpec, RelationRef


class TestModeAgreement:
    def test_all_modes_same_count(self, imdb_db, star_query, all_modes):
        counts = {mode: imdb_db.execute(star_query, mode=mode).aggregates["count_star"] for mode in all_modes}
        assert len(set(counts.values())) == 1, counts

    def test_all_modes_same_count_chain(self, imdb_db, chain_query, all_modes):
        counts = {mode: imdb_db.execute(chain_query, mode=mode).aggregates["count_star"] for mode in all_modes}
        assert len(set(counts.values())) == 1, counts

    def test_all_modes_same_count_cyclic(self, imdb_db, cyclic_query, all_modes):
        counts = {mode: imdb_db.execute(cyclic_query, mode=mode).aggregates["count_star"] for mode in all_modes}
        assert len(set(counts.values())) == 1, counts

    def test_result_object_contents(self, imdb_db, star_query):
        result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert isinstance(result, QueryResult)
        assert result.join_tree is not None
        assert result.schedule is not None
        assert result.plan.aliases == frozenset(star_query.aliases)
        assert result.stats.query_name == star_query.name
        assert result.output_rows == result.stats.output_rows
        baseline = imdb_db.execute(star_query, mode=ExecutionMode.BASELINE)
        assert baseline.join_tree is None and baseline.schedule is None


class TestJoinOrderInvariance:
    def test_random_left_deep_orders_agree(self, imdb_db, chain_query):
        graph = imdb_db.join_graph(chain_query)
        plans = generate_left_deep_plans(graph, 12, seed=5)
        counts = set()
        for plan in plans:
            for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
                counts.add(imdb_db.execute(chain_query, mode=mode, plan=plan).aggregates["count_star"])
        assert len(counts) == 1

    def test_random_bushy_orders_agree(self, imdb_db, star_query):
        graph = imdb_db.join_graph(star_query)
        plans = generate_bushy_plans(graph, 10, seed=6)
        counts = {
            imdb_db.execute(star_query, mode=ExecutionMode.RPT, plan=plan).aggregates["count_star"]
            for plan in plans
        }
        assert len(counts) == 1


class TestRptGuarantees:
    def test_full_reduction_acyclic(self, imdb_db, star_query):
        """With exact semi-joins (Yannakakis), every surviving tuple joins in the output.

        The Bloom variant may keep extra tuples (false positives) but never fewer.
        """
        exact = imdb_db.execute(star_query, mode=ExecutionMode.YANNAKAKIS)
        bloom = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        for alias in star_query.aliases:
            assert bloom.stats.reduced_rows[alias] >= exact.stats.reduced_rows[alias]

    def test_intermediates_bounded_by_output(self, imdb_db, star_query, chain_query):
        """Yannakakis bound: every intermediate of the exact-reduced join phase is <= |OUT|."""
        for query in (star_query, chain_query):
            graph = imdb_db.join_graph(query)
            plans = generate_left_deep_plans(graph, 8, seed=1)
            for plan in plans:
                result = imdb_db.execute(query, mode=ExecutionMode.YANNAKAKIS, plan=plan)
                out = result.stats.output_rows
                for step in result.stats.join_steps[:-1]:
                    assert step.output_rows <= max(out, 0) or out == 0 and step.output_rows == 0

    def test_rpt_more_robust_than_baseline(self, imdb_db, chain_query):
        graph = imdb_db.join_graph(chain_query)
        plans = generate_left_deep_plans(graph, 12, seed=3)
        def rf(mode):
            costs = [
                imdb_db.execute(chain_query, mode=mode, plan=p).stats.cost("tuples") for p in plans
            ]
            return max(costs) / min(costs)
        assert rf(ExecutionMode.RPT) <= rf(ExecutionMode.BASELINE) + 1e-9

    def test_transfer_phase_reduces_relations(self, imdb_db, star_query):
        result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert sum(result.stats.reduced_rows.values()) < sum(result.stats.filtered_rows.values())


class TestExecutionOptions:
    def test_skip_backward_when_aligned(self, imdb_db, star_query):
        result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        aligned_plan = JoinPlan.from_left_deep(result.join_tree.aligned_join_order())
        options = ExecutionOptions(skip_backward_if_aligned=True)
        aligned = imdb_db.execute(star_query, mode=ExecutionMode.RPT, plan=aligned_plan, options=options)
        assert all(s.pass_ == "forward" for s in aligned.stats.transfer_steps)
        # Correctness is unaffected.
        assert aligned.aggregates == result.aggregates

    def test_custom_fpr(self, sparse_db, sparse_query):
        # Sparse keys: on a dense key domain the executor replaces the Bloom
        # filter, whose FPR-driven sizing this test measures, by an exact bitmap.
        tight = ExecutionOptions(transfer=TransferOptions(fpr=0.001))
        loose = ExecutionOptions(transfer=TransferOptions(fpr=0.2))
        r_tight = sparse_db.execute(sparse_query, mode=ExecutionMode.RPT, options=tight)
        r_loose = sparse_db.execute(sparse_query, mode=ExecutionMode.RPT, options=loose)
        assert r_tight.aggregates == r_loose.aggregates
        assert not any(s.downgraded_exact for s in r_tight.stats.transfer_steps)
        assert r_tight.stats.bloom_bytes > r_loose.stats.bloom_bytes

    def test_verify_safe_join_order_flags_unsafe(self):
        from repro.workloads.synthetic import unsafe_subjoin_instance

        instance = unsafe_subjoin_instance(n=50)
        options = ExecutionOptions(verify_safe_join_order=True)
        safe_plan = JoinPlan.from_left_deep(("s", "r", "t"))
        unsafe_plan = JoinPlan.from_left_deep(("s", "t", "r"))
        instance.database.execute(instance.query, mode=ExecutionMode.RPT, plan=safe_plan, options=options)
        with pytest.raises(PlanError):
            instance.database.execute(instance.query, mode=ExecutionMode.RPT, plan=unsafe_plan, options=options)


class TestValidation:
    def test_disconnected_query_rejected(self, imdb_db):
        query = QuerySpec(
            name="disc",
            relations=(RelationRef("a", "keyword"), RelationRef("b", "title")),
            joins=(),
        )
        with pytest.raises(PlanError):
            imdb_db.execute(query, mode=ExecutionMode.BASELINE)

    def test_plan_must_cover_query(self, imdb_db, star_query):
        with pytest.raises(PlanError):
            imdb_db.execute(star_query, plan=JoinPlan.from_left_deep(("mk", "t")))

    def test_single_table_query(self, imdb_db):
        from repro.expr import lt

        query = QuerySpec(
            name="single",
            relations=(RelationRef("t", "title", lt("production_year", 1980)),),
            joins=(),
        )
        result = imdb_db.execute(query, mode=ExecutionMode.BASELINE)
        expected = int(lt("production_year", 1980).evaluate(imdb_db.table("title")).sum())
        assert result.aggregates["count_star"] == expected

    def test_acyclicity_helpers(self, imdb_db, star_query, cyclic_query):
        assert imdb_db.is_acyclic(star_query)
        assert imdb_db.is_gamma_acyclic(star_query)
        assert not imdb_db.is_acyclic(cyclic_query)

    def test_register_table_replace(self):
        db = Database()
        db.register_dataframe("t", {"a": [1]})
        with pytest.raises(Exception):
            db.register_dataframe("t", {"a": [2]})
        db.register_dataframe("t", {"a": [2, 3]}, replace=True)
        assert db.table("t").num_rows == 2
