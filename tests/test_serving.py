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
from repro.engine import plancache
from repro.engine.database import ExecutionOptions, ExplainAnalyzeResult, ExplainResult
from repro.engine.modes import ExecutionConfig
from repro.exec import TransferOptions
from repro.errors import QueryCancelled, QueryTimeout, ReproError, SqlError
from repro.exec.faults import CancelToken
from repro.exec.statistics import ExecutionStats
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

    def test_session_explain_analyze_executes_traced(self):
        db = _make_db()
        direct = db.sql(f"EXPLAIN ANALYZE {QUERY}", options=_serial())
        with Server(db, options=_serial()) as server:
            analyzed = server.session().sql(f"EXPLAIN ANALYZE {QUERY}")
            assert isinstance(analyzed, ExplainAnalyzeResult)
            assert analyzed.aggregates == direct.aggregates
            assert analyzed.aggregates == db.sql(QUERY, options=_serial()).aggregates
            assert analyzed.trace is not None
            assert sum(op.rows_out for op in analyzed.op_stats) > 0
            assert "query" in analyzed.render()
            assert server.stats().completed == 1
        db.close()

    def test_explain_plans_against_the_pinned_snapshot(self, monkeypatch):
        """A replace between pinning a statement and planning its EXPLAIN
        must not change the plan: EXPLAIN reads the pinned versions."""
        db = _make_db()
        from repro.engine import server as server_module
        from repro.sql import compile_statement

        pinned = db.explain(compile_statement(QUERY, db.catalog).query)
        assert pinned.join_tree.root == "f"
        pin = server_module.pin_statement

        def pin_then_replace(*args):
            statement, snapshot = pin(*args)
            # f shrinks below d, which flips the LargestRoot root to d.
            db.register_table(db.table("f").take(np.arange(10)), replace=True)
            return statement, snapshot

        monkeypatch.setattr(server_module, "pin_statement", pin_then_replace)
        with Server(db, options=_serial()) as server:
            explained = server.session().sql(f"EXPLAIN {QUERY}")
        assert explained.join_tree == pinned.join_tree
        live = db.explain(compile_statement(QUERY, db.catalog).query)
        assert live.join_tree.root == "d"
        db.close()

    def test_database_sql_runs_on_the_versions_it_bound_against(self, monkeypatch):
        """A replace landing right after binding must not change the answer:
        ``Database.sql`` pins its tables before binding and executes on that
        snapshot."""
        import repro.sql as sql_module

        db = _make_db()
        before = db.sql(QUERY, options=_serial())
        lower = sql_module.lower_select

        def lower_then_replace(*args):
            lowered = lower(*args)
            db.register_table(db.table("f").take(np.arange(10)), replace=True)
            return lowered

        monkeypatch.setattr(sql_module, "lower_select", lower_then_replace)
        bound = db.sql(QUERY, options=_serial())
        monkeypatch.undo()
        assert bound.aggregates == before.aggregates
        assert db.sql(QUERY, options=_serial()).aggregates != before.aggregates
        assert db.catalog.pinned_version_count() == 0
        assert db.catalog.retained_version_count() == 0
        db.close()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("SELECT COUNT(*) FROM f, nope WHERE f.id = nope.id", "unknown table 'nope'"),
            # Fails in the binder, after the statement's tables are pinned.
            ("SELECT COUNT(*) FROM f, d WHERE f.d_id = d.id AND d.nope = 1", "unknown column"),
        ],
    )
    def test_unknown_name_raises_sql_error_and_pins_nothing(self, text, message):
        db = _make_db(rows=500)
        with pytest.raises(SqlError, match=message):
            db.sql(text)
        assert db.catalog.pinned_version_count() == 0
        with Server(db, options=_serial()) as server:
            with pytest.raises(SqlError, match=message):
                server.session().sql(text)
            assert db.catalog.pinned_version_count() == 0
            assert server.stats().failed == 1
        db.close()

    def test_deadline_comes_from_the_environment(self, monkeypatch):
        """A served query's deadline is ExecutionConfig.timeout_seconds,
        which REPRO_TIMEOUT_SECONDS fills when the config leaves it unset."""
        monkeypatch.setenv("REPRO_TIMEOUT_SECONDS", "0.01")
        db = _make_db(rows=500)
        slow = ExecutionConfig(
            backend="serial", faults="seed:1,rate:1.0,sites:op.latency,latency:0.02"
        )
        with Server(db, options=ExecutionOptions(execution=slow)) as server:
            session = server.session()
            with pytest.raises(QueryTimeout):
                session.sql(QUERY)
            stats = server.stats()
            assert [record.outcome for record in stats.query_log] == ["timeout"]
            assert stats.failed == session.queries_failed == 1
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
            # The slot was released on failure.
            assert server.active_queries == 0
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

    @pytest.mark.parametrize("slots", [3, 200], ids=["three_slots", "ample_slots"])
    @pytest.mark.parametrize("seed", range(8))
    def test_slot_accounting_over_any_sequence(self, seed, slots):
        """White-box: any interleaving of admissions and releases keeps the
        active count at the number of slots held, never past
        ``max_concurrent``, and (with no queue) rejects exactly the
        admissions that would pass it."""
        db = _make_db(rows=50)
        server = Server(
            db, config=ServerConfig(max_concurrent=slots, max_queue=0), options=_serial()
        )
        rng = np.random.default_rng(seed)
        held = admitted = rejected = 0
        for _ in range(200):
            if held and rng.random() < 0.45:
                server._release_slot()
                held -= 1
            elif held == slots:
                with pytest.raises(AdmissionRejected) as info:
                    server._admit()
                assert info.value.reason == "queue_full"
                assert info.value.retry_after_seconds > 0
                rejected += 1
            else:
                assert server._admit() == 0.0  # admitted without queueing
                held += 1
                admitted += 1
            assert server.active_queries == held
            assert server.queued_queries == 0
        # Rejections are counted when a query is observed, which this
        # white-box drive of _admit bypasses (TestOneObservation counts them).
        stats = server.stats()
        assert (stats.admitted, stats.queued) == (admitted, 0)
        assert (rejected > 0) == (slots == 3)
        for _ in range(held):
            server._release_slot()
        assert server.active_queries == 0
        server.close()
        db.close()

    @pytest.mark.parametrize("outcome", ["ok", "explain", "failed", "timeout", "cancelled"])
    def test_slot_is_released_on_every_outcome(self, outcome):
        """Every outcome gives its execution slot back."""
        db = _make_db(rows=500)
        server = Server(
            db, config=ServerConfig(max_concurrent=1, max_queue=0), options=_serial()
        )
        session = server.session()
        text, options, expected = QUERY, _serial(), None
        if outcome == "explain":
            text = "EXPLAIN " + QUERY
        elif outcome == "failed":
            text, expected = "SELECT COUNT(*) FROM no_such_table", ReproError
        elif outcome == "timeout":
            options = ExecutionOptions(
                execution=ExecutionConfig(
                    backend="serial",
                    timeout_seconds=0.01,
                    faults="seed:1,rate:1.0,sites:op.latency,latency:0.02",
                )
            )
            expected = QueryTimeout
        elif outcome == "cancelled":
            token = CancelToken()
            token.cancel()
            options = ExecutionOptions(execution=ExecutionConfig(backend="serial"), cancel=token)
            expected = QueryCancelled
        if expected is None:
            session.sql(text, options=options)
        else:
            with pytest.raises(expected):
                session.sql(text, options=options)
        assert server.active_queries == 0
        # One slot and no queue, so a slot still held would reject this one.
        session.sql(QUERY)
        assert server.stats().rejected == 0
        server.close()
        db.close()

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
        server.close()
        db.close()


# ---------------------------------------------------------------------------
# One observation per query
# ---------------------------------------------------------------------------
class TestOneObservation:
    def test_stats_metrics_sessions_and_log_agree(self):
        """Every outcome is counted once, and every view of it agrees:
        ServerStats, the labelled counters, the session and the query log."""
        db = _make_db(rows=500)
        server = Server(db, config=ServerConfig(max_concurrent=1, max_queue=0), options=_serial())
        session = server.session()
        session.sql(QUERY)
        session.sql(f"EXPLAIN {QUERY}")
        session.sql(f"EXPLAIN ANALYZE {QUERY}")
        with pytest.raises(ReproError):
            session.sql("SELECT COUNT(*) FROM no_such_table")
        slow = ExecutionConfig(
            backend="serial",
            timeout_seconds=0.01,
            faults="seed:1,rate:1.0,sites:op.latency,latency:0.02",
        )
        with pytest.raises(QueryTimeout):
            session.sql(QUERY, options=ExecutionOptions(execution=slow))
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.sql(QUERY, options=ExecutionOptions(execution=_serial().execution, cancel=token))
        with server._cond:  # white-box: a stuck query holds the one slot
            server._running = 1
        with pytest.raises(AdmissionRejected, match="queue full"):
            session.sql(QUERY)
        with server._cond:
            server._running = 0

        stats = server.stats()
        metrics = stats.metrics
        outcomes = [record.outcome for record in stats.query_log]
        assert outcomes == ["ok", "ok", "ok", "failed", "timeout", "cancelled", "rejected"]

        def counted(outcome):
            return metrics.get(f'repro_server_queries_total{{outcome="{outcome}"}}', 0.0)

        assert stats.completed == counted("ok") == session.queries_completed == 3
        failed = [counted(outcome) for outcome in ("failed", "timeout", "cancelled")]
        assert failed == [1.0, 1.0, 1.0]
        assert stats.failed == sum(failed) == session.queries_failed == 3
        assert stats.rejected == stats.rejected_queue_full == counted("rejected") == 1
        assert metrics['repro_server_rejections_total{reason="queue_full"}'] == 1.0
        assert session.queries_rejected == 1
        assert (stats.admitted, stats.queued) == (6, 0)
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

    def test_execution_options_share_the_cache(self):
        # No ExecutionOptions field changes the chosen plan, so sessions
        # with different options reuse one cached plan.
        db = _make_db()
        with Server(db, options=_serial()) as server:
            first = server.session(options=_serial()).sql(QUERY)
            other = ExecutionOptions(
                transfer=TransferOptions(fpr=0.05),
                skip_backward_if_aligned=True,
                execution=ExecutionConfig(backend="serial"),
            )
            second = server.session(options=other).sql(QUERY)
            assert second.aggregates == first.aggregates
            stats = server.stats()
            assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)
        db.close()

    @pytest.mark.parametrize("mode", [ExecutionMode.RPT, ExecutionMode.PT])
    def test_hit_matches_miss_and_database_sql(self, tpch_db, job_db, mode):
        """Every serve_mixed statement: the cached (second) run is bit-identical
        to the first and to the uncached ``Database.sql`` on the same text.
        Its ``EXPLAIN`` and ``EXPLAIN ANALYZE`` forms answer alike served and
        direct, and plan through the SELECT's cache entry."""

        def observed(result):
            stats = result.stats
            return (
                result.aggregates,
                result.physical_plan.describe(),
                len(stats.op_stats),
                stats.total_tuples_processed,
                stats.total_intermediate_rows,
                dict(stats.reduced_rows),
            )

        for workload, db in (("tpch", tpch_db), ("job", job_db)):
            with Server(db, mode=mode, options=_serial()) as server:
                session = server.session()
                stems = sqlfiles.stems_for(workload)
                for stem in stems:
                    text = sqlfiles.sql_text(stem)
                    miss, hit = session.sql(text), session.sql(text)
                    direct = db.sql(text, mode=mode, options=_serial())
                    assert observed(miss) == observed(hit) == observed(direct), stem
                    for prefix in ("EXPLAIN ", "EXPLAIN ANALYZE "):
                        served = session.sql(prefix + text)
                        direct = db.sql(prefix + text, mode=mode, options=_serial())
                        assert type(served) is type(direct), (prefix, stem)
                        assert (
                            served.physical_plan.describe() == direct.physical_plan.describe()
                        ), (prefix, stem)
                    assert isinstance(served, ExplainAnalyzeResult)
                    assert served.aggregates == direct.aggregates == miss.aggregates, stem
                stats = server.stats()
                assert (stats.plan_cache_misses, stats.plan_cache_hits) == (
                    len(stems), 3 * len(stems)
                )

    def test_a_hit_evaluates_base_filters_only_to_execute(self, tpch_db, monkeypatch):
        """A prepared-entry hit evaluates the base-filter masks once for a
        SELECT, and not at all for a plain EXPLAIN, which executes nothing."""
        text = sqlfiles.sql_text("tpch_q3")
        calls = []
        filter_masks = Database.filter_masks
        monkeypatch.setattr(
            Database,
            "filter_masks",
            lambda db, *args, **kwargs: calls.append(1) or filter_masks(db, *args, **kwargs),
        )
        with Server(tpch_db, options=_serial()) as server:
            session = server.session()
            session.sql(text)  # the miss prepares and caches the entry
            for statement, evaluated in (("EXPLAIN " + text, 0), (text, 1)):
                calls.clear()
                session.sql(statement)
                assert len(calls) == evaluated, statement
            assert server.stats().plan_cache_hits == 2

    def test_replace_misses_at_both_levels(self, monkeypatch):
        parses = []
        parse = plancache.parse_statement
        monkeypatch.setattr(
            plancache, "parse_statement", lambda text: parses.append(text) or parse(text)
        )
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            first = session.sql(QUERY)
            session.sql(QUERY)
            assert len(parses) == 1
            db.register_table(db.table("d").take(np.arange(50)), replace=True)
            assert session.sql(QUERY).aggregates == first.aggregates
            assert len(parses) == 2
            stats = server.stats()
            assert (stats.plan_cache_misses, stats.plan_cache_hits) == (2, 1)
        db.close()

    def test_replace_dropping_a_named_column_raises_sql_error(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            session.sql(QUERY)
            db.register_dataframe(
                "f",
                {"id": np.arange(10, dtype=np.int64), "d_id": np.zeros(10, dtype=np.int64)},
                primary_key=["id"],
                replace=True,
            )
            with pytest.raises(SqlError, match="unknown column 'v'"):
                session.sql(QUERY)
        db.close()

    def test_queryspec_shares_the_prepared_entry_of_its_sql_twin(self):
        db = _make_db()
        with Server(db, options=_serial()) as server:
            session = server.session()
            first = session.sql(QUERY)
            from repro.sql import compile_statement

            twin = session.execute(compile_statement(QUERY, db.catalog).query)
            assert twin.aggregates == first.aggregates
            assert twin.physical_plan.describe() == first.physical_plan.describe()
            stats = server.stats()
            assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)
        db.close()

    def test_database_sql_bypasses_the_plan_cache(self):
        """The cache is always on in a Server; Database.sql stays the
        uncached path and neither reads nor fills it."""
        db = _make_db(rows=500)
        with Server(db, options=_serial()) as server:
            session = server.session()
            served = session.sql(QUERY)
            direct = db.sql(QUERY, options=_serial())
            assert direct.aggregates == served.aggregates
            stats = server.stats()
            assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 0)
            assert len(server.plan_cache) == 1
            session.sql(QUERY)
            assert server.stats().plan_cache_hits == 1
        db.close()

    def test_lru_bound_holds_at_both_levels(self, monkeypatch):
        """With room for two entries, a third statement evicts the least
        recently used one from both levels; a hit refreshes recency."""
        parses = []
        parse = plancache.parse_statement
        monkeypatch.setattr(
            plancache, "parse_statement", lambda text: parses.append(text) or parse(text)
        )
        db = _make_db(rows=500)
        cache = plancache.PlanCache(max_entries=2)
        a, b, c = (QUERY.replace("f.v > 50", f"f.v > {v}") for v in (50, 60, 70))

        def run(text):
            statement, snapshot = plancache.pin_statement(text, None, db.catalog, cache)
            try:
                stats = ExecutionStats(query_name="", mode=ExecutionMode.RPT.value)
                plancache.prepare(
                    cache, db, statement, ExecutionMode.RPT, _serial(), stats, snapshot
                )
            finally:
                snapshot.release()
            assert len(cache) <= 2 and len(cache._statements) <= 2
            return (len(parses), cache.hits, cache.misses)

        assert run(a) == (1, 0, 1)
        assert run(b) == (2, 0, 2)
        assert run(a) == (2, 1, 2)  # a hit at both levels: a is now the newest
        assert run(c) == (3, 1, 3)  # evicts b, the least recently used
        assert run(a) == (3, 2, 3)  # a survived at both levels
        assert run(b) == (4, 2, 4)  # b was evicted at both levels
        assert len(cache) == 2
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
