"""Concurrent serving layer: Server/Session, admission, plan cache, snapshots.

The acceptance contract under test: any number of concurrent clients over
one shared :class:`Database` get results bit-identical to a single-threaded
serial run; overload sheds with typed :class:`AdmissionRejected` (never a
hang or an unbounded queue); a ``register(..., replace=True)`` never tears
a running query — it keeps reading its pinned snapshot, and the replaced
version's cached artifacts are released when the last reader lets go.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    AdmissionRejected,
    Database,
    ExecutionMode,
    Server,
    ServerConfig,
    Session,
)
from repro.bench import build_serving_fleet, run_serving_benchmark
from repro.engine.database import ExecutionOptions, ExplainResult
from repro.engine.modes import ExecutionConfig
from repro.errors import QueryCancelled, QueryTimeout, ReproError
from repro.storage import buffer
from repro.workloads import sqlfiles

QUERY = (
    "SELECT COUNT(*) AS n, SUM(f.v) AS s FROM f, d "
    "WHERE f.d_id = d.id AND d.grp < 5 AND f.v > 50"
)


def _make_db(rows: int = 20_000, dims: int = 50, value_scale: int = 1) -> Database:
    rng = np.random.default_rng(7)
    db = Database()
    db.register_dataframe(
        "d",
        {"id": np.arange(dims, dtype=np.int64), "grp": np.arange(dims, dtype=np.int64) % 10},
        primary_key=["id"],
    )
    db.register_dataframe(
        "f",
        {
            "id": np.arange(rows, dtype=np.int64),
            "d_id": rng.integers(0, dims, rows).astype(np.int64),
            "v": (rng.integers(0, 1000, rows) * value_scale).astype(np.int64),
        },
        primary_key=["id"],
    )
    return db


def _serial() -> ExecutionOptions:
    return ExecutionOptions(execution=ExecutionConfig(backend="serial"))


# ---------------------------------------------------------------------------
# Server / Session basics
# ---------------------------------------------------------------------------
class TestServerBasics:
    def test_session_sql_matches_direct_execution(self):
        db = _make_db()
        baseline = db.sql(QUERY, options=_serial())
        with Server(db, options=_serial()) as server:
            with server.session(name="alice") as session:
                result = session.sql(QUERY)
                assert result.aggregates == baseline.aggregates
                assert session.queries_completed == 1
            stats = server.stats()
            assert stats.admitted == 1 and stats.completed == 1
            assert stats.rejected == 0 and stats.failed == 0
        assert server.closed
        db.close()

    def test_session_execute_queryspec_and_explain(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            from repro.sql import compile_statement

            spec = compile_statement(QUERY, db.catalog).query
            result = session.execute(spec, mode=ExecutionMode.RPT)
            assert result.aggregates == db.sql(QUERY, options=_serial()).aggregates
            explained = session.sql(f"EXPLAIN {QUERY}")
            assert isinstance(explained, ExplainResult)
        db.close()

    def test_closed_session_raises_and_close_is_idempotent(self):
        db = _make_db(rows=500)
        server = Server(db, options=_serial())
        session = server.session()
        session.close()
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.sql(QUERY)
        server.close()
        db.close()

    def test_closed_server_rejects_with_typed_error(self):
        db = _make_db(rows=500)
        server = Server(db, options=_serial())
        session = server.session()
        server.close()
        server.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            server.session()
        with pytest.raises(AdmissionRejected) as info:
            session.sql(QUERY)
        assert info.value.reason == "closed"
        assert session.queries_rejected == 1
        # The database outlives its server unless close_database is set.
        assert not db.closed
        db.close()

    def test_close_database_flag_closes_database(self):
        db = _make_db(rows=500)
        server = Server(db, options=_serial())
        server.close(close_database=True)
        assert db.closed

    def test_failed_query_counts_and_server_survives(self):
        db = _make_db(rows=500)
        with Server(db, options=_serial()) as server:
            session = server.session()
            with pytest.raises(ReproError):
                session.sql("SELECT COUNT(*) FROM no_such_table")
            assert session.queries_failed == 1
            # The slot and any reservation were released on failure.
            assert server.active_queries == 0
            assert server.reserved_memory_bytes == 0
            session.sql(QUERY)  # server still serves
        db.close()


# ---------------------------------------------------------------------------
# Admission control and overload shedding
# ---------------------------------------------------------------------------
class TestAdmission:
    def _occupied_server(self, db, **config):
        server = Server(db, config=ServerConfig(**config), options=_serial())
        # White-box: claim every execution slot, as a stuck query would.
        with server._cond:
            server._running = server.config.max_concurrent
        return server

    def _vacate(self, server):
        with server._cond:
            server._running = 0
            server._cond.notify_all()

    def test_queue_full_rejects_immediately_with_retry_hint(self):
        db = _make_db(rows=500)
        server = self._occupied_server(db, max_concurrent=1, max_queue=0)
        session = server.session()
        with pytest.raises(AdmissionRejected) as info:
            session.sql(QUERY)
        assert info.value.reason == "queue_full"
        assert info.value.retry_after_seconds > 0
        assert server.stats().rejected_queue_full == 1
        self._vacate(server)
        server.close()
        db.close()

    def test_admission_timeout_sheds_queued_query(self):
        db = _make_db(rows=500)
        server = self._occupied_server(
            db, max_concurrent=1, max_queue=4, admission_timeout_seconds=0.05
        )
        session = server.session()
        start = time.monotonic()
        with pytest.raises(AdmissionRejected) as info:
            session.sql(QUERY)
        assert info.value.reason == "timeout"
        assert time.monotonic() - start < 5.0  # bounded wait, no hang
        assert server.stats().rejected_timeout == 1
        assert server.queued_queries == 0
        self._vacate(server)
        server.close()
        db.close()

    def test_memory_admission_rejects_over_budget(self):
        db = _make_db(rows=500)
        server = Server(
            db,
            config=ServerConfig(
                session_memory_bytes=1 << 20, memory_budget_bytes=1 << 10
            ),
            options=_serial(),
        )
        session = server.session()
        with pytest.raises(AdmissionRejected) as info:
            session.sql(QUERY)
        assert info.value.reason == "memory"
        assert server.stats().rejected_memory == 1
        assert server.reserved_memory_bytes == 0
        server.close()
        db.close()

    def test_memory_reservations_flow_through_governor(self):
        db = _make_db(rows=500)
        server = Server(
            db,
            config=ServerConfig(
                session_memory_bytes=1 << 16, memory_budget_bytes=1 << 20
            ),
            options=_serial(),
        )
        session = server.session()
        session.sql(QUERY)
        assert server.reserved_memory_bytes == 0  # released after completion
        server.close()
        db.close()
        buffer.assert_no_outstanding_reservations()

    def test_queued_query_records_degradation(self):
        db = _make_db(rows=500)
        server = self._occupied_server(
            db, max_concurrent=1, max_queue=4, admission_timeout_seconds=10.0
        )
        session = server.session()
        outcome = {}

        def client():
            outcome["result"] = session.sql(QUERY)

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 5.0
        while server.queued_queries == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert server.queued_queries == 1
        self._vacate(server)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        result = outcome["result"]
        assert any(
            note.startswith("admission:queued") for note in result.stats.degradations
        )
        server.close()
        db.close()

    def test_overload_sheds_typed_and_never_hangs(self):
        """8 un-retrying clients against a 1-slot server: shed, don't hang."""
        db = _make_db()
        server = Server(
            db,
            config=ServerConfig(
                max_concurrent=1, max_queue=1, admission_timeout_seconds=0.02
            ),
            options=_serial(),
        )
        attempts_per_client = 4
        outcomes = []
        lock = threading.Lock()

        def client():
            session = server.session()
            for _ in range(attempts_per_client):
                try:
                    session.sql(QUERY)
                    with lock:
                        outcomes.append("completed")
                except AdmissionRejected as exc:
                    assert exc.reason in ("queue_full", "timeout")
                    assert exc.retry_after_seconds > 0
                    with lock:
                        outcomes.append("rejected")

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 8 * attempts_per_client  # nothing vanished
        assert outcomes.count("completed") > 0
        stats = server.stats()
        assert stats.completed == outcomes.count("completed")
        assert stats.rejected == outcomes.count("rejected")
        assert server.active_queries == 0 and server.queued_queries == 0
        assert server.reserved_memory_bytes == 0
        server.close()
        db.close()


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_reformatted_sql_hits_cache(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            first = session.sql(QUERY)
            # Same statement, different surface text: extra whitespace and
            # keyword case normalize away in the round-trip formatter.
            reformatted = (
                "select   COUNT(*) AS n,\n   sum(f.v) AS s\n FROM f, d "
                "WHERE f.d_id = d.id AND d.grp < 5 AND f.v > 50"
            )
            second = session.sql(reformatted)
            assert second.aggregates == first.aggregates
            stats = server.stats()
            assert stats.plan_cache_misses == 1
            assert stats.plan_cache_hits == 1
        db.close()

    def test_replace_invalidates_by_catalog_version(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            session.sql(QUERY)
            session.sql(QUERY)
            assert server.stats().plan_cache_hits == 1
            # Replacing a referenced table changes its version: the cached
            # plan's key no longer matches, so the next run is a miss.
            db.register_dataframe(
                "d",
                {
                    "id": np.arange(50, dtype=np.int64),
                    "grp": np.arange(50, dtype=np.int64) % 10,
                },
                primary_key=["id"],
                replace=True,
            )
            session.sql(QUERY)
            stats = server.stats()
            assert stats.plan_cache_misses == 2
            assert stats.plan_cache_hits == 1
        db.close()

    def test_mode_and_options_partition_the_cache(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            session.sql(QUERY, mode=ExecutionMode.RPT)
            session.sql(QUERY, mode=ExecutionMode.BASELINE)
            assert server.stats().plan_cache_misses == 2
        db.close()

    def test_plan_cache_disabled(self):
        db = _make_db(rows=500)
        with Server(
            db, config=ServerConfig(plan_cache=False), options=_serial()
        ) as server:
            assert server.plan_cache is None
            session = server.session()
            session.sql(QUERY)
            session.sql(QUERY)
            stats = server.stats()
            assert stats.plan_cache_hits == 0 and stats.plan_cache_misses == 0
        db.close()


# ---------------------------------------------------------------------------
# Snapshot isolation (MVCC-lite) across backends
# ---------------------------------------------------------------------------
class TestSnapshotIsolation:
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_pinned_snapshot_survives_replace(self, backend, morsel_rows):
        morsel_rows(4096)
        db = _make_db(value_scale=1)
        from repro.sql import compile_statement

        spec = compile_statement(QUERY, db.catalog).query
        options = ExecutionOptions(
            execution=ExecutionConfig(backend=backend, artifact_cache=True)
        )
        old_result = db.execute(spec, options=options)
        snap = db.catalog.snapshot(["f", "d"])
        old_version = snap.version("f")

        # Replace the fact table with doubled values: new queries see the
        # new data, the pinned snapshot keeps the old image.
        rng = np.random.default_rng(7)
        rows, dims = 20_000, 50
        db.register_dataframe(
            "f",
            {
                "id": np.arange(rows, dtype=np.int64),
                "d_id": rng.integers(0, dims, rows).astype(np.int64),
                "v": (rng.integers(0, 1000, rows) * 2).astype(np.int64),
            },
            primary_key=["id"],
            replace=True,
        )
        new_result = db.execute(spec, options=options)
        assert new_result.aggregates != old_result.aggregates

        pinned = db.execute(spec, options=options, snapshot=snap)
        assert pinned.aggregates == old_result.aggregates
        assert pinned.output_rows == old_result.output_rows
        assert db.catalog.retained_version_count() >= 1

        snap.release()
        assert db.catalog.pinned_version_count() == 0
        assert db.catalog.retained_version_count() == 0
        # Release-driven invalidation: nothing cached for the old version.
        cache = db.artifact_cache
        if cache is not None:
            assert not any(
                key.table == "f" and key.table_version == old_version
                for key in cache._entries
            )
        db.close()

    def test_replace_flapping_race_matches_a_committed_version(self):
        """Queries racing replace-flapping always see exactly version A or B."""
        rows, dims = 20_000, 50
        fact = lambda scale: {  # noqa: E731 - tiny local factory
            "id": np.arange(rows, dtype=np.int64),
            "d_id": np.random.default_rng(7).integers(0, dims, rows).astype(np.int64),
            "v": (np.random.default_rng(7).integers(0, 1000, rows) * scale).astype(
                np.int64
            ),
        }
        db = _make_db()
        db.register_dataframe("f", fact(1), primary_key=["id"], replace=True)
        baseline_a = db.sql(QUERY, options=_serial()).aggregates
        db.register_dataframe("f", fact(2), primary_key=["id"], replace=True)
        baseline_b = db.sql(QUERY, options=_serial()).aggregates
        assert baseline_a != baseline_b

        server = Server(db, options=_serial())
        stop = threading.Event()
        errors = []

        def flapper():
            for generation in range(30):
                db.register_dataframe(
                    "f", fact(1 if generation % 2 else 2), primary_key=["id"], replace=True
                )
            stop.set()

        def client():
            session = server.session()
            try:
                while not stop.is_set():
                    aggregates = session.sql(QUERY).aggregates
                    # Never a torn mix of the two versions.
                    assert aggregates in (baseline_a, baseline_b)
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=flapper)] + [
            threading.Thread(target=client) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        server.close()
        assert db.catalog.pinned_version_count() == 0
        assert db.catalog.retained_version_count() == 0
        db.close()


# ---------------------------------------------------------------------------
# Concurrent clients over the checked-in SQL files (driver-based)
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_eight_clients_bit_identical(self, backend):
        """8 closed-loop clients over the synthetic workloads: bit-identity.

        The full-corpus sweep runs in ``benchmarks/test_serving_microbench``;
        this keeps the per-backend serving contract in the unit suite.
        """
        stems = [s for s in sqlfiles.available() if s.startswith("synthetic_")]
        fleet = build_serving_fleet(scale=0.05, seed=1, stems=stems)
        try:
            report = run_serving_benchmark(
                fleet, clients=8, rounds=2, seed=17, backend=backend
            )
        finally:
            fleet.close()
        assert report.verified
        assert report.completed == report.statements * 2
        assert report.shed == 0 and not report.typed_errors

    def test_chaos_mode_typed_or_identical(self):
        """Faults × concurrency: bit-identical or typed, and leak-free."""
        stems = [s for s in sqlfiles.available() if s.startswith("synthetic_")]
        fleet = build_serving_fleet(scale=0.05, seed=1, stems=stems)
        try:
            report = run_serving_benchmark(
                fleet,
                clients=8,
                rounds=2,
                seed=23,
                backend="serial",
                fault_spec="seed:1234,rate:0.05",
            )
        finally:
            fleet.close()
        assert report.verified
        assert report.completed + sum(report.typed_errors.values()) + report.shed == (
            report.statements * 2
        )


# ---------------------------------------------------------------------------
# Server close vs in-flight queries
# ---------------------------------------------------------------------------
class TestServerClose:
    def test_close_cancels_active_queries(self):
        db = _make_db(rows=400_000, dims=200)
        server = Server(db, options=_serial())
        outcomes = []
        lock = threading.Lock()
        started = threading.Barrier(5)

        def client():
            session = server.session()
            started.wait()
            try:
                session.sql(QUERY)
                with lock:
                    outcomes.append("completed")
            except (QueryCancelled, QueryTimeout):
                with lock:
                    outcomes.append("cancelled")
            except AdmissionRejected:
                with lock:
                    outcomes.append("rejected")

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        started.wait()  # all clients submitted (or about to)
        server.close(cancel_active=True)
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 4  # every client got a definite outcome
        assert server.active_queries == 0
        assert server.reserved_memory_bytes == 0
        # The database survives its server.
        assert not db.closed
        db.sql("SELECT COUNT(*) AS n FROM d", options=_serial())
        db.close()

    def test_close_without_cancel_drains(self):
        db = _make_db()
        server = Server(db, options=_serial())
        results = []

        def client():
            session = server.session()
            try:
                results.append(session.sql(QUERY))
            except AdmissionRejected:
                pass  # lost the race with close(): typed, not a hang

        threads = [threading.Thread(target=client) for _ in range(3)]
        for t in threads:
            t.start()
        server.close(cancel_active=False)
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        # Whatever was admitted before close sealed finished normally;
        # later arrivals saw a typed rejection — but nobody hung.
        assert all(r.aggregates for r in results) or results == []
        db.close()
