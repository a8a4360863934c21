"""Integration tests for the Database façade across all execution modes.

These are the end-to-end correctness tests: for realistic queries over the
fixture databases, every execution mode and every join order must produce
the same aggregate results, and RPT must exhibit the theoretical properties
the paper proves (full reduction, bounded intermediates).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Database, ExecutionMode, ExecutionOptions, Server
from repro.engine.database import QueryResult
from repro.errors import PlanError
from repro.exec import TransferOptions
from repro.expr import and_, lt
from repro.optimizer import generate_bushy_plans, generate_left_deep_plans
from repro.plan.join_plan import JoinPlan
from repro.query import JoinCondition, QuerySpec, RelationRef
from repro.storage.table import ForeignKey
from repro.workloads import tpch


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


def _signature(result):
    """Result identity: aggregates + final output rows."""
    return (tuple(sorted(result.aggregates.items())), result.output_rows)


def _star_db(attr_domain: int, n_dim=2_000, n_fact=40_000, num_dims=3, seed=7) -> Database:
    """A star over dense integer ids, each dimension with a uniform filter attribute."""
    rng = np.random.default_rng(seed)
    db = Database()
    fact = {"v": np.arange(n_fact, dtype=np.int64)}
    for d in range(num_dims):
        db.register_dataframe(
            f"dim{d}",
            {
                "id": np.arange(n_dim, dtype=np.int64),
                "attr": rng.integers(0, attr_domain, n_dim),
            },
            primary_key=["id"],
        )
        fact[f"d{d}_id"] = rng.integers(0, n_dim, n_fact)
    db.register_dataframe("fact", fact)
    return db


def _star_query(bound: int, num_dims=3) -> QuerySpec:
    relations = [RelationRef("f", "fact")]
    joins = []
    for d in range(num_dims):
        relations.append(RelationRef(f"d{d}", f"dim{d}", lt("attr", bound)))
        joins.append(JoinCondition("f", f"d{d}_id", f"d{d}", "id"))
    return QuerySpec(name="dense_star", relations=tuple(relations), joins=tuple(joins))


class TestTransferSteps:
    """What the executor decides per transfer step: exact bitmap or Bloom, and §4.3 pruning."""

    def test_bitmap_downgrade_fires_on_dense_domains(self):
        db = _star_db(attr_domain=10)
        query = _star_query(bound=5)
        result = db.execute(query, mode=ExecutionMode.RPT)
        assert result.stats.adaptive_exact_downgrades > 0
        downgraded = [s for s in result.stats.transfer_steps if s.downgraded_exact]
        assert downgraded
        # Exact semi-joins admit no false positives: every downgraded step
        # leaves exactly what the Yannakakis semi-join of the same step does.
        exact = db.execute(query, mode=ExecutionMode.YANNAKAKIS)
        assert _signature(result) == _signature(exact)
        by_step = {(s.source, s.target, s.pass_): s for s in exact.stats.transfer_steps}
        for s in downgraded:
            assert s.rows_after == by_step[(s.source, s.target, s.pass_)].rows_after

    @pytest.mark.parametrize("mode", [ExecutionMode.PT, ExecutionMode.RPT, ExecutionMode.YANNAKAKIS])
    def test_an_empty_source_empties_its_target_and_hashes_nothing(self, tpch_db, mode):
        """q17 with a part filter that keeps no row (q17's own keeps none
        under ``PYTHONHASHSEED=0``): the forward step ``l ⋉ p`` builds no
        filter, hashes no key and keeps no lineitem row."""
        query = tpch.query(17)
        part = next(ref for ref in query.relations if ref.alias == "p")
        no_part = dataclasses.replace(part, filter=and_(part.filter, lt("p_size", 1)))
        query = dataclasses.replace(
            query, relations=tuple(no_part if ref is part else ref for ref in query.relations)
        )
        result = tpch_db.execute(query, mode=mode)
        stats = result.stats
        assert stats.reduced_rows == {"l": 0, "p": 0}
        (step,) = [s for s in stats.transfer_steps if (s.source, s.target) == ("p", "l")]
        assert (step.pass_, step.skipped, step.build_rows) == ("forward", False, 0)
        assert step.filter_bytes == 0 and step.rows_before > 0 and step.rows_after == 0
        step_ops = [op for op in stats.op_stats if "l ⋉ p" in op.detail or "bloom_build p " in op.detail]
        assert len(step_ops) == (1 if mode is ExecutionMode.YANNAKAKIS else 2)
        assert all(op.hash_hits == op.hash_misses == 0 for op in step_ops)

    def test_composite_key_steps_run_exact(self, tpch_db):
        """``tpch_q9``'s ``l ⋉ ps`` and its backward twin join on two
        attributes: RPT runs them exact, as Yannakakis does, so no false
        positive survives and both modes reduce every relation alike."""
        query = tpch.query(9)
        rpt = tpch_db.execute(query, mode=ExecutionMode.RPT)
        exact = tpch_db.execute(query, mode=ExecutionMode.YANNAKAKIS)
        composite = [op for op in rpt.stats.op_stats if op.kind == "bloom_probe" and "," in op.detail]
        assert composite and all(op.downgraded_exact for op in composite)
        assert rpt.stats.reduced_rows == exact.stats.reduced_rows

    def test_bitmap_downgrade_skips_sparse_domains(self, sparse_db, sparse_query):
        result = sparse_db.execute(sparse_query, mode=ExecutionMode.RPT)
        assert result.stats.adaptive_exact_downgrades == 0
        assert all(s.filter_bytes > 0 for s in result.stats.transfer_steps if not s.skipped)
        baseline = sparse_db.execute(sparse_query, mode=ExecutionMode.BASELINE)
        assert _signature(result) == _signature(baseline)

    def test_unfiltered_pk_side_is_pruned(self):
        """§4.3: a step from an unfiltered PK side cannot reduce its FK
        target, so it is skipped statically; with pruning off no step is
        skipped, and the answer is the same."""
        rng = np.random.default_rng(11)
        db = Database()
        n_dim, n_fact = 500, 8_000
        db.register_dataframe(
            "dim", {"id": np.arange(n_dim, dtype=np.int64)}, primary_key=["id"]
        )
        db.register_dataframe(
            "other",
            {"id": np.arange(n_dim, dtype=np.int64), "attr": rng.integers(0, 10, n_dim)},
            primary_key=["id"],
        )
        db.register_dataframe(
            "fact",
            {
                "dim_id": rng.integers(0, n_dim, n_fact),
                "other_id": rng.integers(0, n_dim, n_fact),
            },
            foreign_keys=[
                ForeignKey("dim_id", "dim", "id"),
                ForeignKey("other_id", "other", "id"),
            ],
        )
        query = QuerySpec(
            name="prune_mix",
            relations=(
                RelationRef("f", "fact"),
                RelationRef("d", "dim"),  # unfiltered PK side -> §4.3 prune
                RelationRef("o", "other", lt("attr", 5)),
            ),
            joins=(
                JoinCondition("f", "dim_id", "d", "id"),
                JoinCondition("f", "other_id", "o", "id"),
            ),
        )
        result = db.execute(query, mode=ExecutionMode.RPT)
        pruned = [s for s in result.stats.transfer_steps if s.skipped]
        assert pruned, "the unfiltered PK side should be statically pruned"
        unpruned = db.execute(
            query,
            mode=ExecutionMode.RPT,
            options=ExecutionOptions(transfer=TransferOptions(prune_trivial_semijoins=False)),
        )
        assert not any(s.skipped for s in unpruned.stats.transfer_steps)
        assert _signature(result) == _signature(unpruned)


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


class TestPlanSource:
    def test_explicit_plans_win_over_the_tree_order(self, imdb_db, star_query):
        """RPT plans an α-acyclic query from its tree only when no plan is
        given: an explicit ``plan=`` runs as given, and a server's plan cache
        stores and replays the tree plan."""
        tree = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        tree_plan = JoinPlan.from_left_deep(tree.join_tree.aligned_join_order())
        assert tree.plan == tree_plan
        dp = imdb_db.optimizer_plan(star_query)
        assert dp != tree_plan
        explicit = imdb_db.execute(star_query, mode=ExecutionMode.RPT, plan=dp)
        assert explicit.plan == dp
        assert explicit.aggregates == tree.aggregates

        with Server(imdb_db) as server:
            session = server.session()
            miss = session.execute(star_query, mode=ExecutionMode.RPT)
            hit = session.execute(star_query, mode=ExecutionMode.RPT)
            stats = server.stats()
        assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)
        assert miss.plan == hit.plan == tree_plan
        assert hit.aggregates == tree.aggregates


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
