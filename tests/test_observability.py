"""Observability subsystem: tracing, metrics, query log, EXPLAIN ANALYZE.

The contract under test has three legs:

* **Additivity** — tracing observes executions without participating in
  them, so a traced run is bit-identical to an untraced one on every
  execution mode and every backend, and two traced runs of the same query
  produce the same timing-free span-tree *shape*.
* **Exposition** — :class:`MetricsRegistry` renders valid Prometheus text
  that the bundled validating parser round-trips; ``Server.stats()``
  surfaces a metrics snapshot and the bounded query log.
* **Reporting** — the per-op trace / summary lines and the trace timeline
  are golden-tested so report formats change deliberately, not by drift.
"""

from __future__ import annotations

import itertools
import json
import types

import numpy as np
import pytest

from repro import (
    Database,
    ExecutionMode,
    ExplainAnalyzeResult,
    Server,
    ServerConfig,
)
from repro.bench.reporting import format_op_traces
from repro.engine.database import ExecutionOptions, ExplainResult
from repro.engine.modes import ExecutionConfig
from repro.errors import AdmissionRejected, ReproError
from repro.exec.faults import FaultInjector, FaultPlan
from repro.exec.statistics import COUNTERS, ExecutionStats, OpStats
from repro.obs import (
    MetricsRegistry,
    QueryLog,
    QueryLogRecord,
    Span,
    Tracer,
    parse_exposition,
    render_exposition,
    render_timeline,
    sql_hash,
)
from repro.workloads import sqlfiles
from stats_checks import assert_totals_are_sums


def _options(**execution) -> ExecutionOptions:
    return ExecutionOptions(execution=ExecutionConfig(**execution))


def _fake_clock():
    """A deterministic monotonic clock ticking 1.0 per call."""
    counter = itertools.count()
    return lambda: float(next(counter))


def _star_db(rows: int = 8_000, dims: int = 40) -> Database:
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
            "v": rng.integers(0, 1000, rows).astype(np.int64),
        },
        primary_key=["id"],
    )
    return db


STAR_SQL = (
    "SELECT COUNT(*) AS n, SUM(f.v) AS s FROM f, d "
    "WHERE f.d_id = d.id AND d.grp < 5 AND f.v > 50"
)
#: The same star with conjunctive base filters (several code-space leaves per alias).
CONJUNCTIVE_STAR_SQL = STAR_SQL + " AND f.v < 900 AND d.grp >= 0"


# ---------------------------------------------------------------------------
# Tracer / Span primitives
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_shape_and_exact_timings(self):
        tracer = Tracer(clock=_fake_clock())
        query = tracer.start("q", "query", mode="rpt")
        phase = tracer.start("transfer", "phase")
        op = tracer.start("bloom_probe", "op")
        tracer.finish(op, rows=10)
        tracer.finish(phase)
        tracer.finish(query)

        assert tracer.root is query
        assert query.shape() == (
            "query",
            "q",
            (("phase", "transfer", (("op", "bloom_probe", ()),)),),
        )
        # Clock ticks: q@0, phase@1, op@2, finish(op)@3, finish(phase)@4,
        # finish(query)@5 — spans carry exact injected timestamps.
        assert (op.start, op.end, op.seconds) == (2.0, 3.0, 1.0)
        assert (query.start, query.end) == (0.0, 5.0)
        assert op.attrs == {"rows": 10}
        assert [s.name for s in query.walk()] == ["q", "transfer", "bloom_probe"]
        assert [s.name for s in query.find("op")] == ["bloom_probe"]

    def test_finish_unwinds_unclosed_children(self):
        """Finishing an outer span closes abandoned inner spans too (the
        exception-unwind path when an op raises mid-trace)."""
        tracer = Tracer(clock=_fake_clock())
        outer = tracer.start("q", "query")
        inner = tracer.start("op", "op")
        tracer.finish(outer)
        assert inner.end == outer.end
        assert tracer.current is None

    def test_events_attach_to_current_span(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("q", "query"):
            event = tracer.event("governor:spill", bytes=128)
        assert event.kind == "event"
        assert event.seconds == 0.0
        assert tracer.root.children == [event]
        assert event.attrs == {"bytes": 128}

    def test_second_top_level_span_reparents_under_root(self):
        """A retry after a typed error keeps one root per traced query."""
        tracer = Tracer(clock=_fake_clock())
        first = tracer.start("attempt-1", "query")
        tracer.finish(first)
        second = tracer.start("attempt-2", "query")
        tracer.finish(second)
        assert tracer.root is first
        assert second in first.children

    def test_as_dict_is_json_ready(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("q", "query", mode="pt"):
            with tracer.span("scan", "op"):
                pass
        payload = json.loads(json.dumps(tracer.root.as_dict()))
        assert payload["kind"] == "query"
        assert payload["children"][0]["name"] == "scan"


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        queries = registry.counter("queries_total", "Queries.", labels=("outcome",))
        queries.inc(outcome="ok")
        queries.inc(2.0, outcome="ok")
        queries.inc(outcome="failed")
        assert queries.value(outcome="ok") == 3.0
        assert queries.value(outcome="failed") == 1.0
        with pytest.raises(ReproError):
            queries.inc(-1.0, outcome="ok")

    def test_gauge_semantics(self):
        registry = MetricsRegistry()
        active = registry.gauge("active", "Active queries.")
        active.set(4.0)
        active.inc()
        active.dec(2.0)
        assert active.value() == 3.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "Latency.", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            latency.observe(value)
        samples = {
            (suffix, labels.get("le")): value
            for suffix, labels, value in latency.samples()
        }
        assert samples[("_bucket", "0.01")] == 1.0
        assert samples[("_bucket", "0.1")] == 2.0
        assert samples[("_bucket", "1.0")] == 3.0
        assert samples[("_bucket", "+Inf")] == 4.0
        assert samples[("_count", None)] == 4.0
        assert samples[("_sum", None)] == pytest.approx(5.555)

    def test_registration_is_idempotent_but_shape_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "Hits.", labels=("kind",))
        again = registry.counter("hits_total", "Hits.", labels=("kind",))
        assert again is first
        with pytest.raises(ReproError):
            registry.gauge("hits_total", "Hits.")
        with pytest.raises(ReproError):
            registry.counter("hits_total", "Hits.", labels=("other",))
        with pytest.raises(ReproError):
            registry.counter("bad name", "Nope.")

    def test_snapshot_flattens_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.", labels=("kind",)).inc(kind="a")
        registry.gauge("g", "G.").set(7.0)
        snap = registry.snapshot()
        assert snap['c_total{kind="a"}'] == 1.0
        assert snap["g"] == 7.0


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestExposition:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "Completed queries.", labels=("outcome",)).inc(
            3.0, outcome="ok"
        )
        registry.gauge("repro_active_queries", "In-flight queries.").set(2.0)
        registry.histogram(
            "repro_query_seconds", "Latency.", buckets=(0.1, 1.0)
        ).observe(0.25)
        return registry

    def test_render_parse_round_trip(self):
        registry = self._populated_registry()
        text = render_exposition(registry)
        assert "# HELP repro_queries_total Completed queries." in text
        assert "# TYPE repro_query_seconds histogram" in text
        series = parse_exposition(text)
        assert series == registry.snapshot()
        assert series['repro_queries_total{outcome="ok"}'] == 3.0
        assert series['repro_query_seconds_bucket{le="+Inf"}'] == 1.0

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ReproError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ReproError):
            parse_exposition('ok_total{unquoted=x} 1')
        with pytest.raises(ReproError):
            parse_exposition("ok_total notanumber")
        with pytest.raises(ReproError):
            parse_exposition("# COMMENT of unknown kind")

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricsRegistry()) == ""
        assert parse_exposition("") == {}


# ---------------------------------------------------------------------------
# Query log
# ---------------------------------------------------------------------------
def _record(name: str, seconds: float) -> QueryLogRecord:
    return QueryLogRecord(
        query_name=name,
        sql_hash=sql_hash(name),
        mode="rpt",
        backend="serial",
        plan_fingerprint="abc",
        session="s1",
        admission_wait_seconds=0.0,
        duration_seconds=seconds,
        output_rows=1,
        op_seconds={"scan": seconds},
        cache={},
        adaptive={},
        degradations={},
    )


class TestQueryLog:
    def test_ring_buffer_evicts_oldest(self):
        log = QueryLog(capacity=3)
        for i in range(5):
            log.append(_record(f"q{i}", float(i)))
        assert len(log) == 3
        assert log.total_appended == 5
        assert [r.query_name for r in log.records()] == ["q2", "q3", "q4"]

    def test_slowest_orders_by_duration(self):
        log = QueryLog(capacity=8)
        for name, seconds in (("fast", 0.01), ("slow", 1.5), ("mid", 0.2)):
            log.append(_record(name, seconds))
        assert [r.query_name for r in log.slowest(2)] == ["slow", "mid"]

    def test_to_jsonl_round_trips(self):
        log = QueryLog(capacity=4)
        log.append(_record("q", 0.5))
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["query_name"] == "q"
        assert payload["duration_seconds"] == 0.5

    def test_sql_hash_is_deterministic(self):
        assert sql_hash("SELECT 1") == sql_hash("SELECT 1")
        assert sql_hash("SELECT 1") != sql_hash("SELECT 2")
        assert sql_hash("") == ""


# ---------------------------------------------------------------------------
# Golden report formats
# ---------------------------------------------------------------------------
class TestGoldenReports:
    def _stats(self) -> ExecutionStats:
        stats = ExecutionStats(query_name="golden", mode="rpt")
        stats.op_stats.append(
            OpStats(index=0, kind="scan", detail="scan f (f)", rows_in=10, rows_out=10, seconds=0.5)
        )
        stats.op_stats.append(
            OpStats(
                index=1,
                kind="bloom_probe",
                detail="probe f.d_id",
                rows_in=10,
                rows_out=4,
                seconds=0.25,
                morsels=2,
            )
        )
        return stats

    def test_op_trace_golden(self):
        expected = (
            "  # op                        rows in   rows out    seconds  morsels  detail\n"
            "  0 scan                           10         10   0.500000        0  scan f (f)\n"
            "  1 bloom_probe                    10          4   0.250000        2  probe f.d_id"
        )
        assert self._stats().op_trace() == expected

    def test_execution_summary_golden(self):
        stats = self._stats()
        probe = stats.op_stats[1]
        probe.hash_hits, probe.hash_misses, probe.adaptive_skipped = 2, 1, True
        stats.record_degradation("governor:spill-retry")
        stats.record_degradation("governor:spill-retry")
        assert stats.cache_summary() == "cache: hash passes 2h/1m"
        assert stats.adaptive_summary() == "adaptive: skipped 1 step(s)"
        assert stats.degradation_summary() == "degraded: governor:spill-retry x2"
        assert stats.execution_summary() == (
            "cache: hash passes 2h/1m | adaptive: skipped 1 step(s) | "
            "degraded: governor:spill-retry x2"
        )

    def test_degradation_rungs_never_double_count(self):
        """Regression: per-event rungs merge to one list entry + a count.

        The merge across degradation retry paths used to append the same
        rung once per event, so an inline-fallback run with N morsels
        reported the rung N times in merged summaries.
        """
        stats = ExecutionStats()
        for _ in range(3):
            stats.record_degradation("process:inline-fallback")
        stats.record_degradation("governor:spill-retry")
        assert stats.degradations == ["process:inline-fallback", "governor:spill-retry"]
        assert stats.degradation_counts == {
            "process:inline-fallback": 3,
            "governor:spill-retry": 1,
        }
        assert stats.degradation_summary() == (
            "degraded: process:inline-fallback x3; governor:spill-retry"
        )

    def test_format_op_traces_golden(self):
        fake = types.SimpleNamespace(stats=self._stats())
        report = format_op_traces({ExecutionMode.RPT: fake}).splitlines()
        assert report[0] == "== RPT =="
        assert report[1].startswith("  # op")
        assert any("bloom_probe" in line for line in report)

    def test_render_timeline_golden(self):
        tracer = Tracer(clock=_fake_clock())
        query = tracer.start("q", "query", mode="rpt")
        op = tracer.start("scan", "op")
        tracer.event("spill", bytes=64)
        tracer.finish(op)
        tracer.finish(query)
        expected = (
            "query q                        +    0.000ms  4000.000ms  [mode=rpt]\n"
            "  op    scan                     + 1000.000ms  2000.000ms\n"
            "    @ 2000.000ms  spill  [bytes=64]"
        )
        assert render_timeline(tracer.root) == expected


    @pytest.mark.parametrize(
        "backend",
        [
            {"backend": "serial"},
            {"backend": "parallel", "num_threads": 2},
            {"backend": "process", "num_workers": 2},
        ],
        ids=lambda config: config["backend"],
    )
    def test_every_view_is_derived_from_the_op_records(self, all_modes, backend, morsel_rows):
        """One row of ``COUNTERS`` per field, checked against real executions:
        each total is the sum of its op field, each non-zero field renders
        its marker, and each op span carries the record's non-zero fields."""
        morsel_rows(512)
        options = _options(
            artifact_cache=True,
            adaptive_transfer=True,
            encodings=True,
            tracing=True,
            **backend,
        )
        db = _star_db()
        seen = set()
        try:
            for mode in all_modes:
                for _ in range(2):  # the second run hits the artifact cache
                    result = db.sql(CONJUNCTIVE_STAR_SQL, mode=mode, options=options)
                stats = result.stats
                trace_lines = stats.op_trace().splitlines()[1:]
                spans = result.trace.find("op")
                assert len(trace_lines) == len(spans) == len(stats.op_stats)
                assert_totals_are_sums(stats)
                for op, line, span in zip(stats.op_stats, trace_lines, spans):
                    assert (span.attrs["rows_in"], span.attrs["rows_out"]) == (
                        op.rows_in,
                        op.rows_out,
                    )
                    for counter in COUNTERS:
                        value = getattr(op, counter.field)
                        assert span.attrs.get(counter.field) == (value or None)
                        if value:
                            seen.add(counter.field)
                            if counter.marker:
                                assert counter.marker.format_map(vars(op)) in line
        finally:
            db.close()
        # The knobs that are on all left their mark somewhere in the matrix.
        assert {
            "selvec_rows", "artifact_hits", "downgraded_exact", "blocks_total", "encoded_bytes",
        } <= seen
        assert ("shm_bytes" in seen) == (backend["backend"] == "process")

    def test_latency_drill_names_the_slowed_ops(self, tpch_db):
        """The diagnosability drill: slow some ops with the ``op.latency``
        fault site, then name them from the trace alone — and check every
        other view of the same records agrees with the injector's replay."""
        from repro.workloads import tpch

        latency = 0.05
        spec = f"seed:11,rate:0.15,sites:op.latency,latency:{latency}"
        query = tpch.query(5)
        plan = tpch_db.optimizer_plan(query)
        clean = tpch_db.execute(
            query, mode=ExecutionMode.RPT, plan=plan, options=_options(tracing=True)
        )
        slowed = tpch_db.execute(
            query, mode=ExecutionMode.RPT, plan=plan, options=_options(tracing=True, faults=spec)
        )
        assert slowed.aggregates == clean.aggregates

        # Ground truth: the executor consults the site once per op, in order.
        injector = FaultInjector(FaultPlan.parse(spec))
        truth = {i for i in range(len(slowed.physical_plan.ops)) if injector.latency()}
        assert 0 < len(truth) < len(slowed.physical_plan.ops)

        twin = {span.attrs["index"]: span.seconds for span in clean.trace.find("op")}
        from_trace = {
            span.attrs["index"]
            for span in slowed.trace.find("op")
            if span.seconds >= latency and twin[span.attrs["index"]] < latency / 2
        }
        from_events = {
            span.attrs["index"]
            for span in slowed.trace.find("op")
            if any(child.name == "fault:op.latency" for child in span.children)
        }
        from_stats = {op.index for op in slowed.stats.op_stats if op.seconds >= latency}
        assert from_trace == from_events == from_stats == truth

        # A server's query log alone names the same op kinds.
        server = Server(tpch_db, ServerConfig(max_concurrent=1))
        try:
            session = server.session(name="drill")
            session.execute(query, mode=ExecutionMode.RPT)
            served = session.execute(query, mode=ExecutionMode.RPT, options=_options(faults=spec))
            record = max(server.stats().query_log, key=lambda r: r.duration_seconds)
            slow_kinds = {kind for kind, seconds in record.op_seconds.items() if seconds >= latency}
            assert slow_kinds == {served.physical_plan.ops[i].kind for i in truth}
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Traced execution: bit-identity, determinism, env gating
# ---------------------------------------------------------------------------
class TestTracedExecution:
    @pytest.mark.parametrize("backend", ["serial", "chunked", "parallel", "process"])
    def test_traced_runs_bit_identical_all_modes(self, imdb_db, star_query, all_modes, backend):
        for mode in all_modes:
            base = imdb_db.execute(
                star_query, mode=mode, options=_options(backend=backend, tracing=False)
            )
            traced = imdb_db.execute(
                star_query, mode=mode, options=_options(backend=backend, tracing=True)
            )
            assert base.trace is None
            assert traced.trace is not None
            assert traced.aggregates == base.aggregates
            assert traced.output_rows == base.output_rows
            ops = traced.trace.find("op")
            assert ops, f"no op spans for {mode} on {backend}"
            assert traced.trace.kind == "query"
            assert traced.trace.attrs.get("backend") == backend

    def test_trace_shape_is_deterministic(self, imdb_db, star_query):
        first = imdb_db.execute(star_query, options=_options(backend="serial", tracing=True))
        second = imdb_db.execute(star_query, options=_options(backend="serial", tracing=True))
        assert first.trace.shape() == second.trace.shape()

    def test_fanout_backends_record_batch_spans(self, imdb_db, star_query):
        traced = imdb_db.execute(
            star_query, options=_options(backend="parallel", num_threads=2, tracing=True)
        )
        batches = traced.trace.find("batch")
        assert batches
        assert all(span.name == "morsels" for span in batches)
        assert sum(int(span.attrs.get("count", 0)) for span in batches) > 0

    def test_env_flag_enables_tracing(self, imdb_db, star_query, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = imdb_db.execute(star_query, options=_options(backend="serial"))
        assert traced.trace is not None
        monkeypatch.setenv("REPRO_TRACE", "0")
        untraced = imdb_db.execute(star_query, options=_options(backend="serial"))
        assert untraced.trace is None

    def test_trace_covers_plan_phase_and_every_op(self, imdb_db, star_query):
        traced = imdb_db.execute(star_query, options=_options(backend="serial", tracing=True))
        phases = [span.name for span in traced.trace.find("phase")]
        assert "plan" in phases
        op_spans = traced.trace.find("op")
        assert len(op_spans) == len(traced.stats.op_stats)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------
class TestExplainAnalyze:
    def test_explain_analyze_executes_and_renders_actuals(self):
        db = _star_db()
        plain = db.sql(STAR_SQL)
        analyzed = db.sql("EXPLAIN ANALYZE " + STAR_SQL)
        assert isinstance(analyzed, ExplainAnalyzeResult)
        assert analyzed.aggregates == plain.aggregates
        assert analyzed.trace is not None
        rendered = analyzed.render()
        assert "rows in" in rendered
        assert "query" in rendered  # the timeline section
        assert any(op.rows_in > 0 for op in analyzed.op_stats)
        assert sum(op.seconds for op in analyzed.op_stats) > 0.0

    def test_plain_explain_and_select_are_unchanged(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        db = _star_db()
        explained = db.sql("EXPLAIN " + STAR_SQL)
        assert isinstance(explained, ExplainResult)
        assert not isinstance(explained, ExplainAnalyzeResult)
        selected = db.sql(STAR_SQL)
        assert selected.trace is None

    def test_explain_analyze_every_tpch_query(self, tpch_db):
        stems = sqlfiles.stems_for("tpch")
        assert stems, "expected bundled TPC-H .sql files"
        for stem in stems:
            text = sqlfiles.sql_text(stem)
            analyzed = tpch_db.sql("EXPLAIN ANALYZE " + text)
            assert isinstance(analyzed, ExplainAnalyzeResult), stem
            assert analyzed.trace is not None, stem
            assert analyzed.op_stats, stem
            assert any(op.rows_in > 0 for op in analyzed.op_stats), stem
            assert sum(op.seconds for op in analyzed.op_stats) > 0.0, stem
            rendered = analyzed.render()
            assert "rows in" in rendered, stem


# ---------------------------------------------------------------------------
# Server metrics + query log
# ---------------------------------------------------------------------------
class TestServerObservability:
    def test_stats_exposes_metrics_and_query_log(self):
        db = _star_db()
        server = Server(db, ServerConfig(max_concurrent=2))
        try:
            session = server.session(name="obs")
            first = session.sql(STAR_SQL)
            second = session.sql(STAR_SQL)
            assert first.aggregates == second.aggregates
            session.sql("EXPLAIN " + STAR_SQL)

            stats = server.stats()
            assert stats.metrics['repro_server_queries_total{outcome="ok"}'] == 3.0
            assert stats.metrics["repro_server_query_seconds_count"] == 3.0
            assert stats.metrics["repro_plan_cache_hits"] >= 1.0
            assert len(stats.query_log) == 3
            assert [r.outcome for r in stats.query_log] == ["ok", "ok", "ok"]
            record = stats.query_log[1]  # a SELECT (the last entry is EXPLAIN)
            assert record.session == "obs"
            assert record.sql_hash
            assert record.backend
            assert record.plan_fingerprint
            assert record.duration_seconds >= 0.0
            assert "scan" in record.op_seconds

            rendered = server.render_metrics()
            series = parse_exposition(rendered)
            assert series == server.metrics_snapshot()
        finally:
            server.close(close_database=True)

    def test_rejections_are_counted_and_logged(self):
        db = _star_db()
        server = Server(db, ServerConfig(max_concurrent=1))
        session = server.session(name="late")
        server.close(close_database=True)
        with pytest.raises(AdmissionRejected):
            session.sql(STAR_SQL)
        stats = server.stats()
        assert stats.metrics['repro_server_rejections_total{reason="closed"}'] == 1.0
        assert stats.metrics['repro_server_queries_total{outcome="rejected"}'] == 1.0
        assert stats.query_log[-1].outcome == "rejected"
        assert stats.query_log[-1].error

    def test_query_log_can_be_disabled(self):
        db = _star_db()
        server = Server(db, ServerConfig(query_log_entries=0))
        try:
            session = server.session()
            session.sql(STAR_SQL)
            stats = server.stats()
            assert stats.query_log == []
            assert stats.metrics['repro_server_queries_total{outcome="ok"}'] == 1.0
        finally:
            server.close(close_database=True)

    def test_degradation_metrics_use_bounded_families(self, monkeypatch, morsel_rows):
        monkeypatch.setattr("repro.exec.process.MAX_TASK_RETRIES", 1)
        morsel_rows(512)
        db = _star_db()
        server = Server(db, ServerConfig(max_concurrent=2))
        try:
            session = server.session()
            result = session.sql(
                STAR_SQL,
                options=_options(
                    backend="process",
                    num_workers=2,
                    faults="seed:3,rate:1.0,sites:process.task",
                ),
            )
            assert result.stats.inline_fallback_morsels > 0
            stats = server.stats()
            degraded = {
                key: value
                for key, value in stats.metrics.items()
                if key.startswith("repro_degradations_total")
            }
            assert degraded, "expected degradation counters after a chaos run"
            # Rung labels are family-bounded: at most two ':'-separated parts.
            for key in degraded:
                label = key.split('rung="')[1].rstrip('"}')
                assert label.count(":") <= 1
        finally:
            server.close(close_database=True)
