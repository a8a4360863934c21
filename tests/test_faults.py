"""Fault injection, deadlines/cancellation, the degradation ladder.

Every test here follows the same acceptance contract: under any injected
fault, a query either completes **bit-identical** to a fault-free serial
execution or raises a typed :class:`~repro.errors.ReproError` subclass —
and either way leaves no outstanding memory governor reservation behind.
"""

from __future__ import annotations

import gc

import pytest

from repro import Database, ExecutionMode
from repro.engine.database import ExecutionOptions
from repro.engine.modes import ExecutionConfig
from repro.errors import (
    FaultInjected,
    MemoryExhausted,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.exec import faults
from repro.exec.faults import CancelToken, FaultInjector, FaultPlan
from repro.storage import buffer
from stats_checks import assert_totals_are_sums


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends without an active fault plan."""
    faults.clear()
    yield
    faults.clear()
    gc.collect()
    buffer.assert_no_outstanding_reservations()


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
        plan = FaultPlan(seed=1234, rate=0.05, sites=("parallel.pool", "spill.write"), latency=0.25)
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
        # Nor worker processes or shared-memory segments to fail.
        for family, name in (
            ("process", "task"), ("process", "pool"),
            ("shm", "attach"), ("shm", "share"), ("shm", "unlink"),
        ):
            with pytest.raises(FaultInjected, match=f"unknown fault site '{family}.{name}'"):
                FaultPlan.parse(f"seed:1,rate:1.0,sites:{family}.{name}")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(FaultInjected, match="rate must be in"):
            FaultPlan.parse("seed:1,rate:1.5")

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(FaultInjected, match="malformed"):
            FaultPlan.parse("seed:1,bogus")

    def test_injector_is_deterministic_per_seed(self):
        plan = FaultPlan(seed=99, rate=0.3)
        first = [FaultInjector(plan=plan).should_fire("spill.write") for _ in range(1)]
        runs = []
        for _ in range(3):
            injector = FaultInjector(plan=plan)
            runs.append([injector.should_fire("spill.write") for _ in range(200)])
        assert runs[0] == runs[1] == runs[2]
        assert any(runs[0]) and not all(runs[0])
        # A different seed produces a different firing sequence.
        other = FaultInjector(plan=FaultPlan(seed=100, rate=0.3))
        assert [other.should_fire("spill.write") for _ in range(200)] != runs[0]
        assert first[0] == runs[0][0]

    def test_sites_restrict_firing(self):
        injector = FaultInjector(plan=FaultPlan(seed=1, rate=1.0, sites=("spill.write",)))
        assert injector.should_fire("spill.write")
        assert not injector.should_fire("spill.read")

    def test_configure_and_clear(self):
        assert faults.configure("seed:5,rate:1.0,sites:spill.write") is not None
        assert faults.should_fire("spill.write")
        faults.clear()
        assert not faults.should_fire("spill.write")


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

    def test_governor_spill_retry_rung(self, tpch_db):
        """An injected allocation failure spills evictables and retries."""
        from repro.workloads import tpch

        query = tpch.query(3)
        baseline = tpch_db.execute(query, options=_options(backend="serial"))
        degraded = tpch_db.execute(
            query,
            options=_options(
                backend="serial",
                memory_budget_bytes=1 << 30,
                faults="seed:1,rate:1.0,sites:alloc.reserve",
            ),
        )
        _assert_identical(degraded, baseline)
        assert "governor:spill-retry" in degraded.stats.degradations
        assert "[degraded governor:spill-retry]" in degraded.stats.op_trace()


# ---------------------------------------------------------------------------
# Storage-layer faults: spill I/O, leak invariants
# ---------------------------------------------------------------------------
class TestStorageFaults:
    def test_spill_write_failure_is_tolerated(self):
        """A failing spill restores the victim and counts the failure."""
        from repro.exec.spill import SpillManager

        faults.configure("seed:1,rate:1.0,sites:spill.write")
        governor = buffer.MemoryGovernor(1 << 20, spill_handler=SpillManager())
        governor.reserve("victim", 1000, evictable=True, inject=False)
        assert governor.spill_evictables() == 0
        assert governor.spill_failures > 0
        governor.release_all()

    def test_spill_read_failure_raises_typed_error(self):
        from repro.exec.spill import SpillManager

        spill = SpillManager()
        spill.spill("res", 512)
        faults.configure("seed:1,rate:1.0,sites:spill.read")
        with pytest.raises(ReproError):
            spill.reload("res", 512)

    def test_alloc_fault_raises_memory_exhausted_without_spill_handler(self):
        faults.configure("seed:1,rate:1.0,sites:alloc.reserve")
        governor = buffer.MemoryGovernor(1 << 20)
        with pytest.raises(MemoryExhausted):
            governor.reserve("r", 64)
        assert governor.outstanding == 0


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
                "MemoryExhausted",
                "BackendUnavailable",
            )
