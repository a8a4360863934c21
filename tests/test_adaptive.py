"""Tests for adaptive transfer execution.

Covers the :class:`~repro.exec.adaptive.AdaptiveTransferController` (yield
observation, pending-step cancellation by step id, wholesale backward-pass
skipping),
the KMV distinct-count sketch and its accuracy bounds, the exact-bitmap
downgrade (the executor's own decision, on whether or not skipping is),
bit-identity of adaptive on/off across all five modes / five
workloads / three backends, the IN-list kernel routing, edge cases
(single-relation queries, forward-only schedules, zero-yield first steps,
PK-FK pruning interaction), and observability markers.

Removed with NDV-based Bloom sizing (``ExecutionConfig.ndv_sizing``):
``test_ndv_sizing_shrinks_filters``, ``test_bytes_saved_marker``, the
``ndv_only`` bit-identity configuration, and ``TestNDVSketchArtifacts``
(sketch artifacts cached / invalidated on replace — invalidation of the
remaining artifact kinds is covered by ``test_hash_cache.py``).  The
env-resolution class moved to the table-driven
``test_config_resolution.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Database,
    ExecutionConfig,
    ExecutionMode,
    ExecutionOptions,
    JoinCondition,
    QuerySpec,
    RelationRef,
)
from repro.core.transfer_schedule import TransferPass, TransferSchedule, TransferStep
from repro.exec.adaptive import AdaptiveTransferController
from repro.expr import eq, isin, lt
from repro.optimizer.cardinality import KMV_DEFAULT_K, KMVSketch, kmv_distinct_estimate
from repro.plan.join_plan import JoinPlan
from repro.plan.physical import BloomBuild, BloomProbe, Operand, PhysicalPlan
from repro.storage.table import ForeignKey
from repro.workloads import dsb, job, synthetic, tpcds, tpch


def _options(adaptive=False, **kwargs) -> ExecutionOptions:
    return ExecutionOptions(execution=ExecutionConfig(adaptive_transfer=adaptive, **kwargs))


STATIC = _options()
#: Yield-driven skipping on: must stay result-identical to STATIC.
ADAPTIVE = _options(adaptive=True)


def _signature(result):
    """Result identity: aggregates + final output rows.

    Intermediate statistics (reduced rows, filter bytes) legitimately differ
    under adaptive execution — skipping a reductive pass leaves more rows
    for the join phase — but the query's *answer* must be bit-identical.
    """
    return (tuple(sorted(result.aggregates.items())), result.output_rows)


def _star_db(n_dim=2_000, n_fact=40_000, num_dims=3, attr_domain=1000, seed=7):
    """A star-schema database with per-dimension uniform filter attributes."""
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


def _star_query(num_dims=3, bound=999, attr_domain=1000):
    relations = [RelationRef("f", "fact")]
    joins = []
    for d in range(num_dims):
        relations.append(RelationRef(f"d{d}", f"dim{d}", lt("attr", bound)))
        joins.append(JoinCondition("f", f"d{d}_id", f"d{d}", "id"))
    return QuerySpec(name="adaptive_star", relations=tuple(relations), joins=tuple(joins))


# ---------------------------------------------------------------------------
# Controller unit behavior
# ---------------------------------------------------------------------------
def _transfer_plan(steps):
    """Compile a list of (step_id, source, target, pass_) into a bare plan."""
    ops = []
    for step_id, source, target, pass_ in steps:
        ops.append(
            BloomBuild(
                step_id=step_id,
                source=Operand.relation(source),
                target=Operand.relation(target),
                attributes=("a",),
                pass_=pass_,
            )
        )
        ops.append(
            BloomProbe(
                step_id=step_id,
                source=Operand.relation(source),
                target=Operand.relation(target),
                attributes=("a",),
                pass_=pass_,
            )
        )
    return PhysicalPlan(query_name="t", mode="rpt", ops=tuple(ops))


class TestAdaptiveTransferController:
    def test_high_yield_never_cancels(self):
        plan = _transfer_plan(
            [(0, "a", "f", "forward"), (1, "b", "f", "forward"), (2, "f", "a", "backward")]
        )
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        for op in plan:
            assert not ctl.should_skip(op)
            if isinstance(op, BloomProbe):
                ctl.observe(op, 1000, 500)  # 50% yield everywhere
        assert ctl.cancelled_op_count == 0

    def test_low_yield_cancels_remaining_probes_and_their_builds(self):
        plan = _transfer_plan(
            [(0, "a", "f", "forward"), (1, "b", "f", "forward"), (2, "c", "f", "forward")]
        )
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        assert not ctl.should_skip(plan.ops[0])
        assert not ctl.should_skip(plan.ops[1])
        ctl.observe(plan.ops[1], 1000, 999)  # 0.1% < 1%
        # Both remaining build/probe pairs targeting f are dead now.
        assert ctl.should_skip(plan.ops[2])  # build b
        assert ctl.should_skip(plan.ops[3])  # probe b->f
        assert ctl.should_skip(plan.ops[4])  # build c
        assert ctl.should_skip(plan.ops[5])  # probe c->f
        assert ctl.cancelled_steps == {1, 2}
        assert any("cancel" in d for d in ctl.decisions)

    def test_low_yield_on_one_target_spares_other_targets(self):
        plan = _transfer_plan([(0, "a", "f", "forward"), (1, "a", "g", "forward")])
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        ctl.observe(plan.ops[1], 1000, 1000)  # zero yield on f
        assert ctl.should_skip(plan.ops[2]) is False  # build a for g stays
        assert ctl.should_skip(plan.ops[3]) is False  # probe a->g stays

    def test_backward_pass_skipped_when_build_sides_unreduced(self):
        plan = _transfer_plan(
            [
                (0, "a", "f", "forward"),
                (1, "f", "a", "backward"),
                (2, "f", "b", "backward"),
            ]
        )
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        ctl.observe(plan.ops[1], 1000, 998)  # f reduced only 0.2%
        # First backward op triggers the wholesale decision.
        assert ctl.should_skip(plan.ops[2])
        assert ctl.should_skip(plan.ops[3])
        assert ctl.should_skip(plan.ops[4])
        assert ctl.should_skip(plan.ops[5])
        assert any("backward" in d for d in ctl.decisions)

    def test_backward_pass_kept_when_a_build_side_was_reduced(self):
        plan = _transfer_plan(
            [(0, "a", "f", "forward"), (1, "f", "a", "backward")]
        )
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        ctl.observe(plan.ops[1], 1000, 400)  # f genuinely reduced
        assert not ctl.should_skip(plan.ops[2])
        assert not ctl.should_skip(plan.ops[3])

    def test_zero_rows_before_counts_as_zero_yield(self):
        plan = _transfer_plan([(0, "a", "f", "forward"), (1, "b", "f", "forward")])
        ctl = AdaptiveTransferController(plan, min_yield=0.01)
        ctl.observe(plan.ops[1], 0, 0)
        assert ctl.should_skip(plan.ops[3])

    def test_min_yield_validation(self):
        plan = _transfer_plan([(0, "a", "f", "forward")])
        with pytest.raises(ValueError):
            AdaptiveTransferController(plan, min_yield=1.5)


# ---------------------------------------------------------------------------
# KMV sketch accuracy
# ---------------------------------------------------------------------------
class TestKMVSketch:
    @pytest.mark.parametrize("ndv", [10, 500, 5_000, 50_000])
    def test_estimate_within_bounds(self, ndv):
        rng = np.random.default_rng(ndv)
        values = rng.integers(0, ndv, size=300_000, dtype=np.int64)
        true_ndv = np.unique(values).size
        estimate = kmv_distinct_estimate(values)
        assert true_ndv * 0.85 <= estimate <= true_ndv * 1.15

    def test_small_columns_are_exact(self):
        values = np.array([1, 2, 2, 3, 3, 3], dtype=np.int64)
        sketch = KMVSketch.from_values(values)
        assert sketch.exact
        assert sketch.estimate == 3.0

    def test_empty_column(self):
        sketch = KMVSketch.from_values(np.zeros(0, dtype=np.int64))
        assert sketch.estimate == 0.0 and sketch.exact

    def test_duplicate_heavy_column_avoids_full_sort_yet_estimates(self):
        # NDV far below the pool size: the flooded pool degrades to a
        # smaller-k sample rather than mis-estimating.
        rng = np.random.default_rng(3)
        values = rng.integers(0, 200, size=1_000_000, dtype=np.int64)
        estimate = kmv_distinct_estimate(values)
        assert 150 <= estimate <= 260

    def test_from_hashes_matches_from_values(self):
        from repro.bloom.bloom_filter import hash_keys

        rng = np.random.default_rng(4)
        values = rng.integers(0, 10_000, size=50_000, dtype=np.int64)
        a = KMVSketch.from_values(values)
        b = KMVSketch.from_hashes(hash_keys(values))
        np.testing.assert_array_equal(a.minima, b.minima)
        assert a.estimate == b.estimate

    def test_nbytes_positive(self):
        sketch = KMVSketch.from_values(np.arange(10_000, dtype=np.int64))
        assert sketch.nbytes > 0
        assert sketch.k == KMV_DEFAULT_K


# ---------------------------------------------------------------------------
# Bit-identity: adaptive on/off produce the same answers everywhere
# ---------------------------------------------------------------------------
class TestBitIdentityMatrix:
    def _assert_matrix(self, db, query, plan=None):
        if plan is None:
            plan = db.optimizer_plan(query)
        for mode in ExecutionMode:
            baseline = _signature(db.execute(query, mode=mode, plan=plan, options=STATIC))
            result = db.execute(query, mode=mode, plan=plan, options=ADAPTIVE)
            assert _signature(result) == baseline, mode

    def test_synthetic(self):
        instance = synthetic.figure2_instance(base_size=40)
        self._assert_matrix(instance.database, instance.query)

    def test_tpch(self, tpch_db):
        self._assert_matrix(tpch_db, tpch.query(3))

    def test_job(self, job_db):
        self._assert_matrix(job_db, job.query(1))

    def test_tpcds(self, tpcds_db):
        self._assert_matrix(tpcds_db, tpcds.query(3))

    def test_dsb(self, dsb_db):
        self._assert_matrix(dsb_db, dsb.query(7))

    @pytest.mark.parametrize("backend", ["serial", "chunked", "parallel"])
    def test_backends(self, imdb_db, chain_query, backend, morsel_rows):
        morsel_rows(256)
        baseline = _signature(
            imdb_db.execute(chain_query, mode=ExecutionMode.RPT, options=STATIC)
        )
        options = ExecutionOptions(
            execution=ExecutionConfig(backend=backend, adaptive_transfer=True)
        )
        result = imdb_db.execute(chain_query, mode=ExecutionMode.RPT, options=options)
        assert _signature(result) == baseline, backend

    @pytest.mark.parametrize("backend", ["serial", "chunked", "parallel"])
    def test_backend_decisions_are_identical(self, backend, morsel_rows):
        """Skip decisions are made at morsel-gather barriers, so the set of
        adaptively skipped steps must not depend on the backend."""
        morsel_rows(512)
        db = _star_db()
        query = _star_query(bound=999)
        plan = db.optimizer_plan(query)
        serial = db.execute(
            query,
            mode=ExecutionMode.RPT,
            plan=plan,
            options=_options(adaptive=True, backend="serial"),
        )
        other = db.execute(
            query,
            mode=ExecutionMode.RPT,
            plan=plan,
            options=_options(adaptive=True, backend=backend),
        )
        def skipset(result):
            return [
                (s.source, s.target, s.pass_, s.adaptive_skipped)
                for s in result.stats.transfer_steps
            ]
        assert skipset(serial) == skipset(other)
        assert _signature(serial) == _signature(other)


# ---------------------------------------------------------------------------
# End-to-end adaptive behavior
# ---------------------------------------------------------------------------
class TestAdaptiveExecution:
    def test_zero_yield_first_step_cancels_the_rest(self):
        db = _star_db()
        query = _star_query(bound=1000)  # filters keep every dimension row
        result = db.execute(
            query,
            mode=ExecutionMode.RPT,
            options=ADAPTIVE,
        )
        stats = result.stats
        executed = [s for s in stats.transfer_steps if not s.skipped]
        skipped = [s for s in stats.transfer_steps if s.adaptive_skipped]
        assert len(executed) == 1  # only the first probe ran
        assert stats.adaptive_steps_skipped == len(skipped) > 0
        static = db.execute(query, mode=ExecutionMode.RPT, options=STATIC)
        assert _signature(result) == _signature(static)

    def test_high_yield_runs_every_step(self):
        db = _star_db(attr_domain=10)
        query = _star_query(bound=5, attr_domain=10)  # ~50% filters
        result = db.execute(
            query, mode=ExecutionMode.RPT, options=_options(adaptive=True)
        )
        assert result.stats.adaptive_steps_skipped == 0
        assert all(not s.skipped for s in result.stats.transfer_steps)

    def test_yannakakis_semijoin_steps_also_adapt(self):
        db = _star_db()
        query = _star_query(bound=1000)
        result = db.execute(
            query, mode=ExecutionMode.YANNAKAKIS, options=_options(adaptive=True)
        )
        assert result.stats.adaptive_steps_skipped > 0
        static = db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=STATIC)
        assert _signature(result) == _signature(static)

    def test_single_relation_query(self):
        db = Database()
        db.register_dataframe("t", {"id": np.arange(100, dtype=np.int64)})
        query = QuerySpec(name="single", relations=(RelationRef("t", "t"),), joins=())
        result = db.execute(query, mode=ExecutionMode.RPT, options=_options(adaptive=True))
        assert result.output_rows == 100
        assert result.stats.adaptive_steps_skipped == 0

    def test_forward_only_schedule(self):
        """A schedule whose backward pass is dropped (§4.3 alignment) must
        execute cleanly with the controller's backward decision never firing."""
        db = _star_db(num_dims=1)
        query = _star_query(num_dims=1, bound=999)
        graph = db.join_graph(query)
        from repro.core.largest_root import largest_root

        tree = largest_root(graph)
        plan = JoinPlan.from_left_deep(tree.aligned_join_order())
        options = ExecutionOptions(
            execution=ExecutionConfig(adaptive_transfer=True),
            skip_backward_if_aligned=True,
        )
        result = db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=options)
        assert result.schedule is not None
        assert not result.schedule.has_backward_pass
        static = db.execute(
            query,
            mode=ExecutionMode.RPT,
            plan=plan,
            options=ExecutionOptions(skip_backward_if_aligned=True),
        )
        assert _signature(result) == _signature(static)

    def test_prune_trivial_interaction(self):
        """§4.3-pruned steps are not adaptive observations: an unfiltered PK
        side is skipped statically and must not feed yield decisions."""
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
        adaptive = db.execute(query, mode=ExecutionMode.RPT, options=_options(adaptive=True))
        static = db.execute(query, mode=ExecutionMode.RPT, options=STATIC)
        assert _signature(adaptive) == _signature(static)
        pruned = [
            s for s in adaptive.stats.transfer_steps if s.skipped and not s.adaptive_skipped
        ]
        assert pruned, "the unfiltered PK side should be statically pruned"

    def test_bitmap_downgrade_fires_on_dense_domains(self):
        db = _star_db(attr_domain=10)
        query = _star_query(bound=5, attr_domain=10)
        result = db.execute(query, mode=ExecutionMode.RPT, options=STATIC)
        assert result.stats.adaptive_exact_downgrades > 0
        downgraded = [s for s in result.stats.transfer_steps if s.downgraded_exact]
        assert downgraded
        # Exact semi-joins admit no false positives: every downgraded step
        # leaves exactly what the Yannakakis semi-join of the same step does.
        exact = db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=STATIC)
        assert _signature(result) == _signature(exact)
        by_step = {(s.source, s.target, s.pass_): s for s in exact.stats.transfer_steps}
        for s in downgraded:
            assert s.rows_after == by_step[(s.source, s.target, s.pass_)].rows_after

    def test_bitmap_downgrade_skips_sparse_domains(self, sparse_db, sparse_query):
        result = sparse_db.execute(sparse_query, mode=ExecutionMode.RPT, options=STATIC)
        assert result.stats.adaptive_exact_downgrades == 0
        assert all(s.filter_bytes > 0 for s in result.stats.transfer_steps if not s.skipped)
        baseline = sparse_db.execute(sparse_query, mode=ExecutionMode.BASELINE, options=STATIC)
        assert _signature(result) == _signature(baseline)


# ---------------------------------------------------------------------------
# IN-list kernel routing
# ---------------------------------------------------------------------------
class TestInListKernel:
    def test_matches_np_isin_on_integers(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 1_000, size=50_000, dtype=np.int64)
        db = Database()
        db.register_dataframe("t", {"x": data})
        values = rng.integers(0, 1_000, size=40, dtype=np.int64).tolist()
        mask = isin("x", values).evaluate(db.table("t"))
        np.testing.assert_array_equal(mask, np.isin(data, np.asarray(values)))

    def test_string_in_list_with_missing_values(self):
        db = Database()
        db.register_dataframe("t", {"s": ["a", "b", "c", "a", "d"]})
        mask = isin("s", ["a", "zzz"]).evaluate(db.table("t"))
        np.testing.assert_array_equal(mask, np.array([True, False, False, True, False]))

    def test_empty_in_list(self):
        db = Database()
        db.register_dataframe("t", {"x": np.arange(10, dtype=np.int64)})
        mask = isin("x", []).evaluate(db.table("t"))
        assert mask.dtype == bool and not mask.any() and mask.shape == (10,)

    def test_float_in_list(self):
        db = Database()
        db.register_dataframe("t", {"x": np.array([1.5, 2.5, 3.5])})
        mask = isin("x", [2.5, 9.0]).evaluate(db.table("t"))
        np.testing.assert_array_equal(mask, np.array([False, True, False]))

    def test_large_in_list_over_dictionary_codes(self):
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(2_000)]
        data = rng.choice(words, size=30_000).tolist()
        db = Database()
        db.register_dataframe("t", {"s": data})
        chosen = [f"w{i}" for i in range(0, 2_000, 3)]
        mask = isin("s", chosen).evaluate(db.table("t"))
        expected = np.asarray([v in set(chosen) for v in data])
        np.testing.assert_array_equal(mask, expected)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_trace_markers_and_summaries(self):
        db = _star_db()
        query = _star_query(bound=999)
        result = db.execute(query, mode=ExecutionMode.RPT, options=_options(adaptive=True))
        stats = result.stats
        trace = stats.op_trace()
        assert "[adaptive skip]" in trace
        assert "[exact bitmap]" in trace
        assert stats.adaptive_summary().startswith("adaptive: ")
        assert "skipped" in stats.adaptive_summary()
        summary = stats.execution_summary()
        assert "adaptive: " in summary
        assert any(op.adaptive_skipped for op in stats.op_stats)
        assert any(op.downgraded_exact for op in stats.op_stats)

    def test_format_op_traces_appends_combined_summary(self):
        from repro.bench import format_op_traces, run_uniform_trace

        db = _star_db()
        query = _star_query(bound=999)
        results = run_uniform_trace(
            db, query, modes=(ExecutionMode.RPT,), options=_options(adaptive=True)
        )
        rendered = format_op_traces(results)
        assert "adaptive: " in rendered
        assert "cache: " in rendered  # hash cache is on by default

    def test_static_runs_skip_nothing(self):
        db = _star_db()
        query = _star_query(bound=999)
        result = db.execute(query, mode=ExecutionMode.RPT, options=STATIC)
        stats = result.stats
        assert stats.adaptive_steps_skipped == 0
        assert "[adaptive skip]" not in stats.op_trace()
        assert "skipped" not in stats.adaptive_summary()


# ---------------------------------------------------------------------------
# Schedule helpers
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_schedule_helpers(self):
        forward = TransferStep("a", "b", ("x",), TransferPass.FORWARD)
        backward = TransferStep("b", "a", ("x",), TransferPass.BACKWARD)
        schedule = TransferSchedule(steps=(forward, backward))
        assert schedule.has_backward_pass
        assert schedule.sources_of_pass(TransferPass.BACKWARD) == frozenset({"b"})
        assert not schedule.without_backward_pass().has_backward_pass
