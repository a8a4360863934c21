"""Process backend: bit-identity, shared-memory lifecycle, crash propagation.

The contract under test: :class:`~repro.exec.process.ProcessBackend` is
bit-identical to the serial backend on every execution mode (morsel results
gather in submit order), base columns travel through the database's
:class:`~repro.storage.shm.SharedColumnArena` (invalidated on table
replace), transient segments never outlive a call — including when a worker
raises — and the worker exception propagates to the caller.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ExecutionMode, ExecutionOptions
from repro.engine.modes import ExecutionConfig
from repro.errors import ExecutionError
from repro.exec.backends import make_backend
from repro.exec.kernels import HashIndex
from repro.exec.process import (
    ProcessBackend,
    ShmGather,
    probe_input_rows,
)
from repro.storage import shm
from repro.workloads import sqlfiles


@pytest.fixture(autouse=True)
def _small_morsels(morsel_rows):
    """A tiny morsel, so every non-serial backend actually cuts its inputs."""
    morsel_rows(512)


def process_options(**execution_kwargs) -> ExecutionOptions:
    """Process-backend options (fan-out always happens: see ``_small_morsels``)."""
    execution_kwargs.setdefault("backend", "process")
    execution_kwargs.setdefault("num_workers", 2)
    return ExecutionOptions(execution=ExecutionConfig(**execution_kwargs))


class _Boom:
    """A picklable probe spec whose every call fails (worker-crash injection)."""

    def __call__(self, keys):
        raise ValueError("injected worker failure")


class _EvenMask:
    """A picklable probe spec: mask of even keys (deterministic, stateless)."""

    def __call__(self, keys):
        return np.asarray(keys) % 2 == 0


# ---------------------------------------------------------------------------
# Bit-identity against the serial backend
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_star_and_chain_all_modes(self, imdb_db, star_query, chain_query, all_modes):
        for query in (star_query, chain_query):
            plan = imdb_db.optimizer_plan(query)
            for mode in all_modes:
                serial = imdb_db.execute(
                    query, mode=mode, plan=plan, options=process_options(backend="serial")
                )
                proc = imdb_db.execute(
                    query, mode=mode, plan=plan, options=process_options()
                )
                assert proc.aggregates == serial.aggregates, (query.name, mode)
                assert proc.output_rows == serial.output_rows, (query.name, mode)

    @pytest.mark.parametrize("backend", ["serial", "chunked", "parallel", "process"])
    def test_tpch_backend_matrix(self, tpch_db, backend):
        from repro.workloads import tpch

        query = tpch.all_queries()["q5"]
        plan = tpch_db.optimizer_plan(query)
        baseline = tpch_db.execute(
            query, mode=ExecutionMode.RPT, plan=plan, options=process_options(backend="serial")
        )
        options = (
            process_options()
            if backend == "process"
            else ExecutionOptions(
                execution=ExecutionConfig(backend=backend, num_threads=2)
            )
        )
        result = tpch_db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=options)
        assert result.aggregates == baseline.aggregates
        assert result.output_rows == baseline.output_rows

    def test_job_query_process_vs_serial(self, job_db):
        from repro.workloads import job

        name, query = next(iter(job.all_queries().items()))
        plan = job_db.optimizer_plan(query)
        serial = job_db.execute(
            query, mode=ExecutionMode.RPT, plan=plan, options=process_options(backend="serial")
        )
        proc = job_db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=process_options())
        assert proc.aggregates == serial.aggregates, name

    def test_sql_workloads_process_vs_serial(self):
        """Every checked-in .sql file: process aggregates == serial aggregates."""
        cache = {}
        serial = sqlfiles.run_all(
            scale=0.05,
            seed=3,
            options=process_options(backend="serial"),
            database_cache=cache,
        )
        proc = sqlfiles.run_all(
            scale=0.05,
            seed=3,
            options=process_options(),
            database_cache=cache,
        )
        assert len(serial) == len(proc) == len(sqlfiles.available())
        for s, p in zip(serial, proc):
            assert s["stem"] == p["stem"]
            assert s["aggregates"] == p["aggregates"], s["stem"]
        for db in cache.values():
            db.close()


# ---------------------------------------------------------------------------
# Backend unit behavior (fan-out, inline fallbacks, match offsets)
# ---------------------------------------------------------------------------
class TestBackendUnits:
    def test_probe_mask_fans_out_bit_identical(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 30, size=10_000, dtype=np.int64)
        backend = ProcessBackend(num_workers=2, morsel_size=1_000)
        mask = backend.probe_mask(keys, _EvenMask())
        np.testing.assert_array_equal(mask, keys % 2 == 0)
        assert backend.tasks_dispatched == 10
        assert backend.record.shm_bytes > 0

    def test_match_fans_out_bit_identical(self):
        rng = np.random.default_rng(9)
        build = rng.integers(0, 5_000, size=3_000, dtype=np.int64)
        probe = rng.integers(0, 5_000, size=8_000, dtype=np.int64)
        index = HashIndex(build)
        expected = HashIndex(build).match(probe)
        backend = ProcessBackend(num_workers=2, morsel_size=1_000)
        got = backend.match(probe, index)
        np.testing.assert_array_equal(got.probe_indices, expected.probe_indices)
        np.testing.assert_array_equal(got.build_indices, expected.build_indices)

    def test_small_input_runs_inline(self):
        keys = np.arange(100, dtype=np.int64)
        backend = ProcessBackend(num_workers=2)  # default morsel >> 100 rows
        before = shm.live_segment_count()
        mask = backend.probe_mask(keys, _EvenMask())
        np.testing.assert_array_equal(mask, keys % 2 == 0)
        assert backend.tasks_dispatched == 1  # inline, no fan-out
        assert shm.live_segment_count() == before

    def test_unpicklable_spec_falls_back_inline(self):
        keys = np.arange(5_000, dtype=np.int64)
        backend = ProcessBackend(num_workers=2, morsel_size=1_000)
        captured = []  # closure state makes the callable unpicklable
        mask = backend.probe_mask(keys, lambda k: captured.append(1) or (k % 2 == 0))
        np.testing.assert_array_equal(mask, keys % 2 == 0)
        assert captured, "fallback must have run inline in this process"

    def test_shm_gather_lazy_probe_input(self):
        column = np.arange(100, dtype=np.int64) * 10
        selection = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        gather = ShmGather(
            shm.ShmArrayRef(name="unused", dtype="<i8", shape=(100,)), selection, column
        )
        assert gather.rows == 5
        assert probe_input_rows(gather) == 5
        np.testing.assert_array_equal(gather.materialize(), column[selection])

    def test_invalid_constructor_args(self):
        with pytest.raises(ExecutionError):
            ProcessBackend(num_workers=0)
        with pytest.raises(ExecutionError):
            ProcessBackend(morsel_size=0)


# ---------------------------------------------------------------------------
# Shared-memory lifecycle
# ---------------------------------------------------------------------------
def _star_db(fact_rows: int = 4_000, dim_rows: int = 2_000, seed: int = 21):
    from repro.expr import lt
    from repro.query import JoinCondition, QuerySpec, RelationRef

    rng = np.random.default_rng(seed)
    db = Database()
    db.register_dataframe(
        "dim",
        {
            "id": np.arange(dim_rows, dtype=np.int64),
            "attr": rng.integers(0, 100, size=dim_rows, dtype=np.int64),
        },
        primary_key=["id"],
    )
    db.register_dataframe(
        "fact",
        {
            "v": np.arange(fact_rows, dtype=np.int64),
            "d_id": rng.integers(0, dim_rows, size=fact_rows, dtype=np.int64),
        },
    )
    query = QuerySpec(
        name="shm_star",
        relations=(RelationRef("f", "fact"), RelationRef("d", "dim", lt("attr", 50))),
        joins=(JoinCondition("f", "d_id", "d", "id"),),
    )
    return db, query


class TestShmLifecycle:
    def test_arena_publishes_and_close_unlinks(self):
        live_before = shm.live_segment_count()
        db, query = _star_db()
        baseline = db.execute(
            query, mode=ExecutionMode.YANNAKAKIS, options=process_options(backend="serial")
        )
        # Exact semi-join probes ship the key column through the arena gather
        # path (Bloom probes replay the parent's cached hashing pass instead).
        result = db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=process_options())
        assert result.aggregates == baseline.aggregates
        assert result.stats.shm_bytes_mapped > 0
        assert "[shm" in result.stats.op_trace()
        arena = db.shm_arena
        assert arena is not None and arena.num_segments > 0
        assert arena.total_bytes > 0
        published = arena.num_segments
        db.close()
        assert arena.num_segments == 0
        assert shm.live_segment_count() == live_before, f"{published} arena segments leaked"

    def test_table_replace_invalidates_arena_segments(self):
        live_before = shm.live_segment_count()
        db, query = _star_db()
        db.execute(query, mode=ExecutionMode.YANNAKAKIS, options=process_options())
        arena = db.shm_arena
        published = {key[0] for key in arena.published_keys()}
        assert published, "gather path must have published at least one column"
        table_name = next(iter(published))
        before = arena.num_segments

        # Re-register the table under the same name: stale segments must go.
        rng = np.random.default_rng(99)
        rows = db.catalog.table(table_name).num_rows
        columns = {
            name: rng.integers(0, 100, size=rows, dtype=np.int64)
            for name in db.catalog.table(table_name).column_names
        }
        db.register_dataframe(table_name, columns, replace=True)
        assert all(key[0] != table_name for key in arena.published_keys())
        assert arena.num_segments < before
        db.close()
        assert shm.live_segment_count() == live_before

    def test_worker_crash_propagates_and_leaks_nothing(self):
        keys = np.arange(10_000, dtype=np.int64)
        backend = ProcessBackend(num_workers=2, morsel_size=1_000)
        before = shm.live_segment_count()
        with pytest.raises(ValueError, match="injected worker failure"):
            backend.probe_mask(keys, _Boom())
        # Transient spec/input segments are unlinked in the fan-out's finally
        # block even though a worker raised.
        assert shm.live_segment_count() == before

    def test_create_and_unlink_roundtrip(self):
        array = np.arange(1_000, dtype=np.int64)
        before = shm.live_segment_count()
        segment, ref = shm.share_array(array)
        assert shm.live_segment_count() == before + 1
        np.testing.assert_array_equal(shm.attach_array(ref), array)
        assert ref.nbytes == array.nbytes
        shm.unlink_segment(segment)
        shm.unlink_segment(segment)  # idempotent
        assert shm.live_segment_count() == before


# ---------------------------------------------------------------------------
# Configuration and construction
# ---------------------------------------------------------------------------
class TestConfiguration:
    def test_make_backend_process(self, morsel_rows):
        morsel_rows(2_048)
        backend = make_backend("process", num_workers=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.num_workers == 3
        assert backend.morsel_size == 2_048

    def test_make_backend_unknown_name_mentions_process(self):
        with pytest.raises(ExecutionError, match="process"):
            make_backend("quantum")
