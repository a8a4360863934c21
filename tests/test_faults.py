"""Fault injection, deadlines/cancellation, the degradation ladder.

Every test here follows the same acceptance contract: under any injected
fault, a query either completes **bit-identical** to a fault-free serial
execution or raises a typed :class:`~repro.errors.ReproError` subclass —
and either way leaves no backend pool thread alive behind it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ExecutionMode
from repro.engine.database import ExecutionOptions
from repro.engine.modes import ExecutionConfig
from repro.errors import (
    BackendUnavailable,
    FaultInjected,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.exec import faults
from repro.exec.backends import pool_threads
from repro.exec.faults import CancelToken, FaultInjector, FaultPlan
from repro.exec.kernels import HashIndex
from stats_checks import assert_totals_are_sums


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends without an active fault plan, and no pool
    thread it started is still alive at its end."""
    faults.clear()
    threads_before = pool_threads()
    yield
    faults.clear()
    leaked = pool_threads() - threads_before
    assert not leaked, f"leaked pool threads: {sorted(t.name for t in leaked)}"


def _options(**execution) -> ExecutionOptions:
    return ExecutionOptions(execution=ExecutionConfig(**execution))


def _assert_identical(result, baseline):
    assert result.aggregates == baseline.aggregates
    assert result.output_rows == baseline.output_rows


def _assert_partial_stats_consistent(stats):
    """The stats of an aborted run: one record per op that started, only the
    last one aborted, and every total the sum over those records."""
    assert stats.op_stats
    assert [op.index for op in stats.op_stats] == list(range(len(stats.op_stats)))
    assert [op.aborted for op in stats.op_stats] == [False] * (len(stats.op_stats) - 1) + [True]
    assert stats.op_trace().endswith("[aborted]")
    assert_totals_are_sums(stats)


# ---------------------------------------------------------------------------
# The plan / injector primitives
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trips(self):
        plan = FaultPlan(seed=1234, rate=0.05, sites=("parallel.pool", "op.latency"), latency=0.25)
        assert FaultPlan.parse(plan.spec()) == plan

    def test_parse_defaults_and_whitespace(self):
        plan = FaultPlan.parse(" seed:7 , rate:0.5 ")
        assert plan == FaultPlan(seed=7, rate=0.5)
        assert FaultPlan.parse("") == FaultPlan()

    def test_parse_rejects_unknown_site(self):
        with pytest.raises(FaultInjected, match="unknown fault site"):
            FaultPlan.parse("seed:1,rate:0.5,sites:no.such.site")
        # Columns are never encoded, so there is no decode to fail.
        with pytest.raises(FaultInjected, match="unknown fault site 'column.decode'"):
            FaultPlan.parse("seed:1,rate:1.0,sites:column.decode")
        # Nor worker processes or shared-memory segments to fail, nor spills
        # or budgeted reservations: a stale REPRO_FAULTS fails loudly.
        for family, name in (
            ("process", "task"), ("process", "pool"),
            ("shm", "attach"), ("shm", "share"), ("shm", "unlink"),
            ("spill", "write"), ("spill", "read"), ("alloc", "reserve"),
        ):
            with pytest.raises(FaultInjected, match=f"unknown fault site '{family}.{name}'"):
                FaultPlan.parse(f"seed:1,rate:1.0,sites:{family}.{name}")

    @pytest.mark.parametrize("site", ["spill.write", "spill.read", "alloc.reserve"])
    def test_stale_env_spec_fails_every_query(self, imdb_db, star_query, monkeypatch, site):
        """A ``REPRO_FAULTS`` naming a removed site raises on each execution,
        not only the first one that reads the variable."""
        monkeypatch.setenv(faults.ENV_FAULTS, f"seed:1,rate:1.0,sites:{site}")
        for _ in range(2):
            with pytest.raises(FaultInjected, match=f"unknown fault site '{site}'"):
                imdb_db.execute(star_query, options=_options(backend="serial"))
        assert imdb_db.active_queries == 0

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(FaultInjected, match="rate must be in"):
            FaultPlan.parse("seed:1,rate:1.5")

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(FaultInjected, match="malformed"):
            FaultPlan.parse("seed:1,bogus")

    def test_injector_is_deterministic_per_seed(self):
        plan = FaultPlan(seed=99, rate=0.3)
        first = [FaultInjector(plan=plan).should_fire("parallel.pool") for _ in range(1)]
        runs = []
        for _ in range(3):
            injector = FaultInjector(plan=plan)
            runs.append([injector.should_fire("parallel.pool") for _ in range(200)])
        assert runs[0] == runs[1] == runs[2]
        assert any(runs[0]) and not all(runs[0])
        # A different seed produces a different firing sequence.
        other = FaultInjector(plan=FaultPlan(seed=100, rate=0.3))
        assert [other.should_fire("parallel.pool") for _ in range(200)] != runs[0]
        assert first[0] == runs[0][0]

    def test_sites_restrict_firing(self):
        injector = FaultInjector(plan=FaultPlan(seed=1, rate=1.0, sites=("parallel.pool",)))
        assert injector.should_fire("parallel.pool")
        assert not injector.should_fire("op.latency")

    def test_configure_and_clear(self):
        assert faults.configure("seed:5,rate:1.0,sites:parallel.pool") is not None
        assert faults.should_fire("parallel.pool")
        faults.clear()
        assert not faults.should_fire("parallel.pool")


class TestCancelToken:
    def test_manual_cancel(self):
        token = CancelToken()
        token.check()  # no deadline, not cancelled: fine
        token.cancel()
        with pytest.raises(QueryCancelled):
            token.check()

    def test_deadline(self):
        token = CancelToken(timeout_seconds=0.0)
        assert token.expired()
        assert token.remaining() == 0.0
        with pytest.raises(QueryTimeout):
            token.check()

    def test_no_deadline_never_expires(self):
        token = CancelToken()
        assert not token.expired()
        assert token.remaining() is None


# ---------------------------------------------------------------------------
# Deadlines and cancellation
# ---------------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_timeout_during_transfer(self, tpch_db, backend):
        """Injected op latency blows a tiny deadline; the typed error carries
        the partial stats — including the slowed op that was in flight, which
        owns the injected latency — and nothing leaks."""
        from repro.workloads import tpch

        query = tpch.query(5)
        with pytest.raises(QueryTimeout) as excinfo:
            tpch_db.execute(
                query,
                mode=ExecutionMode.RPT,
                options=_options(
                    backend=backend,
                    timeout_seconds=0.02,
                    faults="seed:1,rate:1.0,sites:op.latency,latency:0.05",
                ),
            )
        stats = excinfo.value.stats
        assert stats is not None
        assert stats.query_name == query.name
        _assert_partial_stats_consistent(stats)
        assert stats.op_stats[-1].seconds >= 0.05
        assert stats.op_seconds_by_kind()[stats.op_stats[-1].kind] >= 0.05

    def test_cancel_mid_op_keeps_the_probe_in_flight(self, tpch_db):
        """A token cancelled at the second morsel barrier of a transfer probe
        cut into 256-row morsels: the partial stats end with that probe,
        marked aborted, holding the one morsel it had dispatched."""
        from repro.exec import MorselBackend, PipelineExecutor
        from repro.exec.statistics import ExecutionStats
        from repro.plan.physical import compile_execution
        from repro.workloads import tpch

        class CancelInsideProbe(CancelToken):
            def check(self):
                record = backend.record
                in_flight = not stats.op_stats or stats.op_stats[-1] is not record
                if in_flight and record.kind == "bloom_probe" and record.morsels == 1:
                    self.cancel()
                super().check()

        query = tpch.query(5)
        result = tpch_db.execute(query, mode=ExecutionMode.RPT)
        physical = compile_execution(
            query,
            ExecutionMode.RPT,
            result.plan,
            tpch_db.join_graph(query),
            tables={ref.alias: tpch_db.table(ref.table) for ref in query.relations},
            schedule=result.schedule,
        )
        backend = MorselBackend(morsel_size=256)
        backend.cancel = CancelInsideProbe()
        stats = ExecutionStats(query_name=query.name, mode="rpt")
        executor = PipelineExecutor(
            query, tpch_db.join_graph(query), catalog=tpch_db.catalog, backend=backend
        )
        with pytest.raises(QueryCancelled):
            executor.run(physical, stats)
        _assert_partial_stats_consistent(stats)
        probe = stats.op_stats[-1]
        assert probe.kind == "bloom_probe"
        assert probe.rows_in > 256 and probe.morsels == 1
        assert len(stats.op_stats) < len(physical.ops)

    def test_manual_cancellation(self, tpch_db):
        from repro.workloads import tpch

        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled) as excinfo:
            tpch_db.execute(
                tpch.query(3),
                options=ExecutionOptions(
                    execution=ExecutionConfig(backend="serial"), cancel=token
                ),
            )
        assert excinfo.value.stats is not None

    def test_serial_kernel_chunking_is_bit_identical(self, tpch_db):
        """Cancellation chunking inside serial kernels must not change results."""
        from repro.workloads import tpch

        query = tpch.query(5)
        baseline = tpch_db.execute(query, options=_options(backend="serial"))
        with_token = tpch_db.execute(
            query, options=_options(backend="serial", timeout_seconds=600.0)
        )
        _assert_identical(with_token, baseline)

    def test_generous_deadline_completes(self, tpch_db):
        from repro.workloads import tpch

        result = tpch_db.execute(
            tpch.query(3), options=_options(backend="parallel", timeout_seconds=600.0)
        )
        assert result.aggregates


# ---------------------------------------------------------------------------
# The graceful-degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_ladder_reaches_serial(self, tpch_db):
        from repro.workloads import tpch

        query = tpch.query(3)
        baseline = tpch_db.execute(query, options=_options(backend="serial"))
        degraded = tpch_db.execute(
            query,
            options=_options(
                backend="parallel",
                faults="seed:1,rate:1.0,sites:parallel.pool",
            ),
        )
        _assert_identical(degraded, baseline)
        assert degraded.stats.degradations[:1] == ["backend:parallel->serial"]
        assert "degraded:" in degraded.stats.degradation_summary()

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.name)
    def test_pool_failure_degrades_bit_identically_in_every_mode(
        self, tpch_db, mode, morsel_rows
    ):
        """The thread pool never starts; every mode still answers what the
        serial preset answers, and records the one rung it took."""
        morsel_rows(512)
        from repro.workloads import tpch

        query = tpch.query(5)
        baseline = tpch_db.execute(query, mode=mode, options=_options(backend="serial"))
        degraded = tpch_db.execute(
            query,
            mode=mode,
            options=_options(
                backend="parallel",
                num_threads=2,
                faults="seed:3,rate:1.0,sites:parallel.pool",
            ),
        )
        _assert_identical(degraded, baseline)
        assert degraded.stats.degradations == ["backend:parallel->serial"]


    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    @pytest.mark.parametrize("site", faults.KNOWN_SITES)
    def test_every_site_at_full_rate_is_bit_identical(self, tpch_db, site, backend):
        """Neither surviving site can fail a query on its own: a pool that
        never starts takes the serial rung, and injected latency only slows
        the ops, each of which owns the delay it slept."""
        from repro.workloads import tpch

        query = tpch.query(3)
        baseline = tpch_db.execute(query, options=_options(backend="serial"))
        faulted = tpch_db.execute(
            query,
            options=_options(
                backend=backend,
                num_threads=2,
                faults=f"seed:5,rate:1.0,sites:{site},latency:0.001",
            ),
        )
        _assert_identical(faulted, baseline)
        degrades = (site, backend) == ("parallel.pool", "parallel")
        assert faulted.stats.degradations == (["backend:parallel->serial"] if degrades else [])
        if site == "op.latency":
            assert all(op.seconds >= 0.001 for op in faulted.stats.op_stats)


# ---------------------------------------------------------------------------
# Pool-thread lifetime: the engine's leak invariant
# ---------------------------------------------------------------------------
class TestPoolThreads:
    def test_ensure_ready_starts_a_worker_and_close_joins_it(self):
        from repro.exec import MorselBackend

        backend = MorselBackend(num_threads=2, morsel_size=64)
        assert not pool_threads()
        backend.ensure_ready()
        assert pool_threads(), "a parallel backend holds a live worker once ready"
        backend.close()
        assert not pool_threads()
        backend.close()  # idempotent

    def test_serial_preset_never_starts_a_thread(self):
        """Even cut into cancel chunks, the serial preset runs on the caller."""
        from repro.exec.backends import SERIAL_CANCEL_CHUNK, make_backend

        backend = make_backend("serial")
        backend.cancel = CancelToken()
        backend.ensure_ready()
        probe = np.arange(2 * SERIAL_CANCEL_CHUNK + 1) % 7
        matches = backend.match(probe, HashIndex(np.arange(5)))
        assert matches.probe_indices.size == int(np.count_nonzero(probe < 5))
        assert not pool_threads()
        backend.close()

    def test_failed_pool_start_leaves_no_thread(self):
        from repro.exec import MorselBackend

        faults.configure("seed:1,rate:1.0,sites:parallel.pool")
        backend = MorselBackend(num_threads=2, morsel_size=64)
        with pytest.raises(BackendUnavailable, match="thread pool unavailable"):
            backend.ensure_ready()
        assert not pool_threads()
        backend.close()

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.name)
    def test_completed_query_joins_its_pool(self, tpch_db, mode, morsel_rows):
        from repro.workloads import tpch

        morsel_rows(512)
        result = tpch_db.execute(
            tpch.query(5), mode=mode, options=_options(backend="parallel", num_threads=2)
        )
        assert result.execution_config.backend == "parallel"
        assert not result.stats.degradations
        assert any(op.morsels > 1 for op in result.stats.op_stats), "the pool ran morsels"
        assert not pool_threads()

    @pytest.mark.parametrize("abort", ["cancel", "timeout"])
    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.name)
    def test_aborted_query_joins_its_pool(self, tpch_db, mode, abort):
        """The error path out of a running query closes its backend too."""
        from repro.workloads import tpch

        if abort == "cancel":
            token = CancelToken()
            token.cancel()
            options = ExecutionOptions(
                execution=ExecutionConfig(backend="parallel", num_threads=2), cancel=token
            )
            expected = QueryCancelled
        else:
            options = _options(
                backend="parallel",
                num_threads=2,
                timeout_seconds=0.01,
                faults="seed:1,rate:1.0,sites:op.latency,latency:0.02",
            )
            expected = QueryTimeout
        with pytest.raises(expected) as excinfo:
            tpch_db.execute(tpch.query(5), mode=mode, options=options)
        assert excinfo.value.stats is not None
        assert not pool_threads()
        assert tpch_db.active_queries == 0


# ---------------------------------------------------------------------------
# Database lifecycle
# ---------------------------------------------------------------------------
class TestDatabaseClose:
    def test_close_is_idempotent_and_execute_raises(self):
        from repro.workloads import tpch

        db = Database()
        tpch.load(db, scale=0.01, seed=1)
        query = tpch.query(3)
        db.execute(query, options=_options(backend="serial"))
        db.close()
        db.close()  # idempotent
        assert db.closed
        with pytest.raises(ReproError, match="closed"):
            db.execute(query)
        with pytest.raises(ReproError, match="closed"):
            db.sql("SELECT COUNT(*) FROM lineitem")

    def test_close_drains_in_flight_queries(self):
        """``close()`` waits for running queries instead of racing them."""
        import threading

        from repro.workloads import tpch

        db = Database()
        tpch.load(db, scale=0.02, seed=1)
        query = tpch.query(3)
        baseline = db.execute(query, options=_options(backend="serial"))

        results, errors = [], []

        def client():
            try:
                results.append(db.execute(query, options=_options(backend="serial")))
            except ReproError as exc:  # admission refused post-close is also legal
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        db.close()  # must drain, not race, the in-flight executions
        for t in threads:
            t.join()
        assert db.closed and db.active_queries == 0
        # Whatever was admitted before close finished bit-identical.
        for result in results:
            _assert_identical(result, baseline)
        for exc in errors:
            assert "closed" in str(exc)

    def test_concurrent_close_is_safe(self):
        """Many threads calling close() concurrently: no errors."""
        import threading

        from repro.workloads import tpch

        db = Database()
        tpch.load(db, scale=0.01, seed=1)
        db.execute(tpch.query(3), options=_options(backend="serial"))
        failures = []

        def closer():
            try:
                db.close()
            except Exception as exc:  # noqa: BLE001 - any error is a failure here
                failures.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert db.closed
        with pytest.raises(ReproError, match="closed"):
            db.execute(tpch.query(3))


# ---------------------------------------------------------------------------
# The sweep harness (every checked-in .sql file)
# ---------------------------------------------------------------------------
class TestFaultSweep:
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_sweep_under_5pct_faults(self, backend):
        """Bit-identical to the fault-free serial baseline or a typed error,
        leak-free either way (``run_fault_sweep`` raises otherwise)."""
        from repro.workloads import sqlfiles

        records = sqlfiles.run_fault_sweep(
            "seed:1234,rate:0.05", backend=backend, scale=0.05, seed=3
        )
        assert len(records) == len(sqlfiles.available())
        for record in records:
            assert record["outcome"] == "completed" or record["outcome"].endswith("Error") or record["outcome"] in (
                "QueryTimeout",
                "QueryCancelled",
                "FaultInjected",
                "BackendUnavailable",
            )
