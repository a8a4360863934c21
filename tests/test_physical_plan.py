"""Tests for the PhysicalPlan IR, its compilers, and the pipeline executor.

Covers the mode property flags, mode ↔ PhysicalPlan compilation (every mode
compiles to the expected op sequence), cross-mode result agreement through
the pipeline executor on the synthetic / TPC-H / JOB / TPC-DS / DSB
fixtures, the serial vs chunked vs parallel backends, the searchsorted
semi-join kernel, and the evaluate-base-filters-once guarantee.
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
from repro.bench.simulation import ParallelismModel, simulate_parallel_cost
from repro.exec.kernels import HashIndex, match_keys, semi_join_mask
from repro.exec.backends import DEFAULT_CHUNK_SIZE, DEFAULT_MORSEL_SIZE, MorselBackend, make_backend
from repro.exec.process import DEFAULT_PROCESS_MORSEL_SIZE, ProcessBackend
from repro.expr.expressions import Expression, eq
from repro.errors import ExecutionError
from repro.plan.join_plan import JoinPlan
from repro.plan.physical import PhysicalPlan, compile_execution
from repro.workloads import dsb, job, synthetic, tpcds, tpch


# ---------------------------------------------------------------------------
# ExecutionMode property flags
# ---------------------------------------------------------------------------
class TestModeFlags:
    def test_transfer_phase_flags(self):
        assert not ExecutionMode.BASELINE.uses_transfer_phase
        assert not ExecutionMode.BLOOM_JOIN.uses_transfer_phase
        assert ExecutionMode.PT.uses_transfer_phase
        assert ExecutionMode.RPT.uses_transfer_phase
        assert ExecutionMode.YANNAKAKIS.uses_transfer_phase

    def test_bloom_filter_flags(self):
        assert not ExecutionMode.BASELINE.uses_bloom_filters
        assert not ExecutionMode.BLOOM_JOIN.uses_bloom_filters
        assert ExecutionMode.PT.uses_bloom_filters
        assert ExecutionMode.RPT.uses_bloom_filters
        assert not ExecutionMode.YANNAKAKIS.uses_bloom_filters

    def test_exact_semijoin_flags(self):
        assert ExecutionMode.YANNAKAKIS.uses_exact_semijoins
        for mode in ExecutionMode:
            if mode is not ExecutionMode.YANNAKAKIS:
                assert not mode.uses_exact_semijoins

    def test_per_join_bloom_flags(self):
        assert ExecutionMode.BLOOM_JOIN.uses_per_join_bloom
        for mode in ExecutionMode:
            if mode is not ExecutionMode.BLOOM_JOIN:
                assert not mode.uses_per_join_bloom

    def test_labels_are_unique(self):
        labels = {mode.label for mode in ExecutionMode}
        assert len(labels) == len(list(ExecutionMode))


# ---------------------------------------------------------------------------
# Mode -> PhysicalPlan compilation
# ---------------------------------------------------------------------------
def _compile(db: Database, query: QuerySpec, mode: ExecutionMode) -> PhysicalPlan:
    options = ExecutionOptions()
    graph = db.join_graph(query)
    schedule = None
    if mode.uses_transfer_phase:
        _, schedule = db._build_schedule(mode, graph, options)
    plan = db.optimizer_plan(query, options, graph)
    return compile_execution(
        query,
        mode,
        plan,
        graph,
        tables={ref.alias: db.catalog.table(ref.table) for ref in query.relations},
        schedule=schedule,
    )


class TestCompilation:
    @pytest.fixture()
    def compiled(self, imdb_db, star_query):
        return {mode: _compile(imdb_db, star_query, mode) for mode in ExecutionMode}

    def test_every_mode_scans_filters_joins_aggregates(self, compiled, star_query):
        n = len(star_query.relations)
        n_filters = sum(1 for ref in star_query.relations if ref.filter is not None)
        for mode, plan in compiled.items():
            kinds = plan.op_kinds()
            assert kinds[:n] == ("scan",) * n, mode
            assert plan.count("filter_push") == n_filters, mode
            assert plan.count("hash_build") == n - 1, mode
            assert plan.count("hash_probe") == n - 1, mode
            assert kinds[-1] == "aggregate", mode

    def test_baseline_has_no_transfer_or_bloom_ops(self, compiled):
        plan = compiled[ExecutionMode.BASELINE]
        assert plan.count("bloom_build") == 0
        assert plan.count("bloom_probe") == 0
        assert plan.count("semi_join_reduce") == 0

    def test_bloom_join_compiles_per_join_sip_pairs(self, compiled, star_query):
        plan = compiled[ExecutionMode.BLOOM_JOIN]
        n_joins = len(star_query.relations) - 1
        assert plan.count("bloom_build") == n_joins
        assert plan.count("bloom_probe") == n_joins
        assert plan.count("semi_join_reduce") == 0
        # Each SIP pair sits immediately before its hash join.
        kinds = plan.op_kinds()
        for i, kind in enumerate(kinds):
            if kind == "bloom_build":
                assert kinds[i + 1] == "bloom_probe"
                assert kinds[i + 2] == "hash_build"
                assert kinds[i + 3] == "hash_probe"

    def test_rpt_and_pt_compile_transfer_bloom_pairs(self, compiled, imdb_db, star_query):
        for mode in (ExecutionMode.RPT, ExecutionMode.PT):
            plan = compiled[mode]
            options = ExecutionOptions()
            graph = imdb_db.join_graph(star_query)
            _, schedule = imdb_db._build_schedule(mode, graph, options)
            assert plan.count("bloom_build") == len(schedule)
            assert plan.count("bloom_probe") == len(schedule)
            assert plan.count("semi_join_reduce") == 0

    def test_yannakakis_compiles_exact_semijoins(self, compiled, imdb_db, star_query):
        plan = compiled[ExecutionMode.YANNAKAKIS]
        options = ExecutionOptions()
        graph = imdb_db.join_graph(star_query)
        _, schedule = imdb_db._build_schedule(ExecutionMode.YANNAKAKIS, graph, options)
        assert plan.count("semi_join_reduce") == len(schedule)
        assert plan.count("bloom_build") == 0

    def test_describe_renders_every_op(self, compiled):
        plan = compiled[ExecutionMode.RPT]
        text = plan.describe()
        assert "PhysicalPlan" in text
        assert text.count("\n") == len(plan)

    def test_plan_exposed_on_query_result(self, imdb_db, star_query):
        result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert result.physical_plan is not None
        assert result.physical_plan.mode == "rpt"
        assert result.physical_plan.op_kinds()[-1] == "aggregate"
        # Per-op stats: one entry per compiled op, timed, with the phases
        # accounted consistently.
        assert len(result.op_stats) == len(result.physical_plan)
        assert all(op.seconds >= 0.0 for op in result.op_stats)
        assert result.stats.op_seconds_by_kind()
        assert "hash_probe" in result.stats.op_trace()


# ---------------------------------------------------------------------------
# All five modes agree through the pipeline executor
# ---------------------------------------------------------------------------
class TestModeAgreement:
    def test_synthetic_fixture(self):
        instance = synthetic.figure2_instance(base_size=40)
        counts = {
            mode: instance.database.execute(instance.query, mode=mode).aggregates
            for mode in ExecutionMode
        }
        assert len({tuple(sorted(c.items())) for c in counts.values()}) == 1, counts

    def test_tpch_fixture(self, tpch_db):
        query = tpch.query(3)
        plan = tpch_db.optimizer_plan(query)
        results = {
            mode: tpch_db.execute(query, mode=mode, plan=plan).aggregates
            for mode in ExecutionMode
        }
        assert len({tuple(sorted(r.items())) for r in results.values()}) == 1, results

    def test_job_fixture(self, job_db):
        query = job.query(1)
        plan = job_db.optimizer_plan(query)
        results = {
            mode: job_db.execute(query, mode=mode, plan=plan).aggregates
            for mode in ExecutionMode
        }
        assert len({tuple(sorted(r.items())) for r in results.values()}) == 1, results

    @pytest.mark.parametrize("number", [3, 27])
    def test_tpcds_fixture(self, tpcds_db, number):
        query = tpcds.query(number)
        plan = tpcds_db.optimizer_plan(query)
        results = {
            mode: tpcds_db.execute(query, mode=mode, plan=plan).aggregates
            for mode in ExecutionMode
        }
        assert len({tuple(sorted(r.items())) for r in results.values()}) == 1, results

    @pytest.mark.parametrize("number", [7, 96])
    def test_dsb_fixture(self, dsb_db, number):
        query = dsb.query(number)
        plan = dsb_db.optimizer_plan(query)
        results = {
            mode: dsb_db.execute(query, mode=mode, plan=plan).aggregates
            for mode in ExecutionMode
        }
        assert len({tuple(sorted(r.items())) for r in results.values()}) == 1, results


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
def _backend_options(backend: str) -> ExecutionOptions:
    return ExecutionOptions(execution=ExecutionConfig(backend=backend))


class TestBackends:
    def test_make_backend_presets(self, morsel_rows):
        def preset(backend):
            assert type(backend) is MorselBackend
            return backend.num_threads, backend.morsel_size

        assert preset(make_backend("serial")) == (1, None)
        assert preset(make_backend("chunked")) == (1, DEFAULT_CHUNK_SIZE)
        assert preset(make_backend("parallel", num_threads=3)) == (3, DEFAULT_MORSEL_SIZE)
        process = make_backend("process", num_workers=1)
        assert isinstance(process, ProcessBackend)
        assert process.morsel_size == DEFAULT_PROCESS_MORSEL_SIZE
        for bad in (("gpu",), ("parallel", 0), ("process", None, 0)):
            with pytest.raises(ExecutionError):
                make_backend(*bad)
        # The presets read their morsel size when the backend is made.
        morsel_rows(64)
        assert preset(make_backend("chunked")) == (1, 64)
        assert preset(make_backend("parallel", 2)) == (2, 64)
        assert make_backend("process", num_workers=1).morsel_size == 64

    def test_chunked_backend_matches_serial(self, imdb_db, chain_query, all_modes, morsel_rows):
        morsel_rows(256)
        for mode in all_modes:
            serial = imdb_db.execute(chain_query, mode=mode)
            chunked = imdb_db.execute(
                chain_query,
                mode=mode,
                options=_backend_options("chunked"),
            )
            assert serial.aggregates == chunked.aggregates, mode
            assert serial.output_rows == chunked.output_rows, mode

    def test_parallel_backend_matches_serial(self, imdb_db, chain_query, all_modes, morsel_rows):
        morsel_rows(256)
        for mode in all_modes:
            serial = imdb_db.execute(chain_query, mode=mode)
            parallel = imdb_db.execute(
                chain_query,
                mode=mode,
                options=_backend_options("parallel"),
            )
            assert serial.aggregates == parallel.aggregates, mode
            assert serial.output_rows == parallel.output_rows, mode

    def test_simulated_parallel_cost_derives_from_any_backends_trace(
        self, imdb_db, star_query, morsel_rows
    ):
        morsel_rows(128)
        # Replaces test_chunked_backend_accrues_simulated_cost: the chunked
        # backend's inline accrual (stats.simulated_parallel_cost) is gone;
        # the Figure 14 cost is a function of the recorded steps alone.
        model = ParallelismModel(chunk_size=128)
        costs = {
            backend: simulate_parallel_cost(
                imdb_db.execute(
                    star_query, mode=ExecutionMode.RPT, options=_backend_options(backend)
                ).stats,
                model,
            )
            for backend in ("serial", "chunked")
        }
        assert costs["serial"] == costs["chunked"] > 0.0


# ---------------------------------------------------------------------------
# Kernels: searchsorted membership + HashIndex reuse
# ---------------------------------------------------------------------------
class TestSemiJoinKernel:
    def test_matches_isin_reference(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 500, size=4_000, dtype=np.int64)
        filter_keys = rng.integers(0, 500, size=700, dtype=np.int64)
        expected = np.isin(keys, filter_keys)
        np.testing.assert_array_equal(semi_join_mask(keys, filter_keys), expected)

    def test_empty_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        some = np.array([1, 2, 3], dtype=np.int64)
        assert semi_join_mask(empty, some).shape == (0,)
        assert not semi_join_mask(some, empty).any()

    def test_hash_index_reuse(self):
        rng = np.random.default_rng(8)
        build = rng.integers(0, 100, size=1_000, dtype=np.int64)
        probe = rng.integers(0, 100, size=2_000, dtype=np.int64)
        index = HashIndex(build)
        np.testing.assert_array_equal(index.contains(probe), np.isin(probe, build))
        direct = match_keys(probe, build)
        via_index = match_keys(probe, index)
        np.testing.assert_array_equal(direct.probe_indices, via_index.probe_indices)
        np.testing.assert_array_equal(direct.build_indices, via_index.build_indices)

    def test_float_probe_keys_against_integer_filter(self):
        # The bitmap fast path must not engage for non-integer probes.
        out = semi_join_mask(np.array([1.0, 2.5, 3.0]), np.array([1, 2, 3]))
        assert out.tolist() == [True, False, True]

    def test_unbounded_domain_reuse_amortizes(self):
        rng = np.random.default_rng(9)
        build = rng.integers(0, 2**60, size=10_000)
        probe = rng.integers(0, 2**60, size=10_000)
        index = HashIndex(build)
        first = index.contains(probe)   # one-shot: np.isin fallback
        second = index.contains(probe)  # reuse: sorted index built and cached
        assert index._sorted_keys is not None
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, np.isin(probe, build))

    def test_match_keys_duplicates(self):
        probe = np.array([5, 5, 9], dtype=np.int64)
        build = np.array([5, 5, 7], dtype=np.int64)
        matches = match_keys(probe, build)
        assert matches.num_matches == 4  # each probe 5 pairs with both build 5s


# ---------------------------------------------------------------------------
# Base filters are evaluated exactly once per execution
# ---------------------------------------------------------------------------
class _CountingFilter(Expression):
    """Wraps a predicate and counts how many times it is evaluated."""

    def __init__(self, inner: Expression) -> None:
        self.inner = inner
        self.calls = 0

    def evaluate(self, table):
        self.calls += 1
        return self.inner.evaluate(table)

    def referenced_columns(self):
        return self.inner.referenced_columns()


class TestSingleFilterEvaluation:
    def _db(self) -> Database:
        db = Database()
        db.register_dataframe(
            "dim", {"id": [1, 2, 3, 4], "color": ["red", "blue", "red", "green"]},
            primary_key=["id"],
        )
        db.register_dataframe("fact", {"dim_id": [1, 1, 2, 3, 4, 4], "v": [1, 2, 3, 4, 5, 6]})
        return db

    def _query(self, counting: _CountingFilter) -> QuerySpec:
        return QuerySpec(
            name="count_filter",
            relations=(
                RelationRef("d", "dim", counting),
                RelationRef("f", "fact"),
            ),
            joins=(JoinCondition("f", "dim_id", "d", "id"),),
        )

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_filter_evaluated_once_per_execute(self, mode):
        db = self._db()
        counting = _CountingFilter(eq("color", "red"))
        query = self._query(counting)
        db.execute(query, mode=mode)
        assert counting.calls == 1, f"{mode}: filter evaluated {counting.calls} times"

    def test_join_graph_reuses_masks(self):
        db = self._db()
        counting = _CountingFilter(eq("color", "red"))
        query = self._query(counting)
        masks = db.filter_masks(query)
        assert counting.calls == 1
        db.join_graph(query, masks=masks)
        assert counting.calls == 1  # sizes derived from the precomputed mask
