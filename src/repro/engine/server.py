"""Concurrent serving layer: many SQL clients over one shared ``Database``.

The :class:`Server` multiplexes concurrent client :class:`~repro.engine.session.Session`
queries over a shared :class:`~repro.engine.database.Database` with three
guarantees a bare ``Database`` does not give:

* **MVCC-lite snapshot isolation** — every admitted query pins a
  :class:`~repro.storage.catalog.CatalogSnapshot` of exactly the tables it
  reads; a concurrent ``register_table(replace=True)`` retains the pinned
  versions until the last reader releases them, so a running query never
  sees a torn catalog and never loses its cached artifacts mid-flight.
* **Admission control** — at most ``max_concurrent`` queries execute at
  once; up to ``max_queue`` more wait (bounded, FIFO-ish) for at most
  ``admission_timeout_seconds``.  Anything beyond that is *shed* with a
  typed :class:`~repro.errors.AdmissionRejected` carrying a
  ``retry_after_seconds`` hint derived from observed service latency and
  queue depth — overload degrades into fast typed rejections, never into
  unbounded queues or hangs.  Optional per-query memory reservations
  (``session_memory_bytes`` against ``memory_budget_bytes``, accounted
  through a :class:`~repro.storage.buffer.MemoryGovernor`) extend the same
  backpressure to memory.
* **Deadlines and shed-load degradation** — every admitted query gets a
  :class:`~repro.exec.faults.CancelToken` (defaulting from
  ``default_timeout_seconds``); a query that waited in the admission queue
  can be tightened to ``shed_timeout_seconds``, recorded in
  ``ExecutionStats.degradations`` alongside the queue wait itself.

A plan cache (:mod:`repro.engine.plancache`) keyed by the round-trip SQL
normal form, the execution mode, and the pinned table versions skips the
join-order optimizer for repeated statement shapes; a table replace bumps
the version and the stale entry simply misses.

Per-query fault plans (``ExecutionOptions.execution.faults``) configure
the *process-global* injector and are not safe under concurrency; chaos
testing against a server should configure :mod:`repro.exec.faults`
globally (e.g. via ``REPRO_FAULTS``) instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Union

from repro.engine.database import (
    Database,
    ExecutionOptions,
    ExplainResult,
    QueryResult,
)
from repro.engine.modes import ExecutionMode
from repro.engine.plancache import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    PlanCache,
    PlanCacheKey,
)
from repro.engine.session import Session
from repro.errors import (
    AdmissionRejected,
    PlanError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.exec import faults
from repro.exec.faults import CancelToken
from repro.exec.statistics import COUNTERS
from repro.obs.export import render_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import (
    DEFAULT_QUERY_LOG_ENTRIES,
    QueryLog,
    QueryLogRecord,
    sql_hash,
)
from repro.query import QuerySpec
from repro.sql import compile_statement
from repro.sql.format import to_sql
from repro.storage.buffer import MemoryGovernor

#: ``OpStats`` fields whose per-query totals are exported as serving
#: counters: field -> (metric name, help).
_OP_COUNTER_METRICS = {
    "spill_events": (
        "repro_governor_spill_events_total",
        "Memory-governor spills across served queries.",
    ),
    "spilled_bytes": (
        "repro_governor_spilled_bytes_total",
        "Bytes the memory governor spilled across served queries.",
    ),
    "hash_hits": ("repro_hash_cache_hits_total", "Hash-cache column passes reused."),
    "hash_misses": ("repro_hash_cache_misses_total", "Hash-cache column passes computed."),
    "artifact_hits": (
        "repro_artifact_cache_hits_total",
        "Artifact-cache hits across served queries.",
    ),
    "artifact_misses": (
        "repro_artifact_cache_misses_total",
        "Artifact-cache misses across served queries.",
    ),
}


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs (all admission decisions derive from these)."""

    #: Queries allowed to execute concurrently.
    max_concurrent: int = 4
    #: Queries allowed to *wait* for a slot beyond the concurrent ones;
    #: admission beyond ``max_concurrent + max_queue`` rejects immediately.
    max_queue: int = 16
    #: Longest a query may wait in the admission queue before being shed.
    admission_timeout_seconds: float = 10.0
    #: Default per-query deadline (None: no deadline unless the client's
    #: options carry one).
    default_timeout_seconds: Optional[float] = None
    #: Tighter deadline applied to queries that had to wait in the queue
    #: (shed-load degradation; None disables the tightening).
    shed_timeout_seconds: Optional[float] = None
    #: Memory reserved per admitted query (0 disables memory admission).
    session_memory_bytes: int = 0
    #: Total memory budget across concurrent queries (None: unlimited).
    memory_budget_bytes: Optional[int] = None
    #: Whether to cache join plans for repeated normalized SQL texts.
    plan_cache: bool = True
    plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES
    #: Ring-buffer capacity of the structured query log (0 disables it).
    query_log_entries: int = DEFAULT_QUERY_LOG_ENTRIES

    def __post_init__(self) -> None:
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.admission_timeout_seconds < 0:
            raise ValueError("admission_timeout_seconds must be non-negative")
        if self.session_memory_bytes < 0:
            raise ValueError("session_memory_bytes must be non-negative")
        if self.query_log_entries < 0:
            raise ValueError("query_log_entries must be non-negative")


@dataclass
class ServerStats:
    """Monotonic serving counters (snapshot via :meth:`Server.stats`)."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    queued: int = 0
    rejected_queue_full: int = 0
    rejected_timeout: int = 0
    rejected_memory: int = 0
    rejected_closed: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Flat metrics snapshot (series name -> value), filled by
    #: :meth:`Server.stats` from the server's :class:`MetricsRegistry`.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Retained query-log records (oldest first), filled by
    #: :meth:`Server.stats` from the server's :class:`QueryLog`.
    query_log: List[QueryLogRecord] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_timeout
            + self.rejected_memory
            + self.rejected_closed
        )


class Server:
    """Admission-controlled concurrent front end over one ``Database``."""

    def __init__(
        self,
        database: Database,
        config: Optional[ServerConfig] = None,
        mode: ExecutionMode = ExecutionMode.RPT,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        self.database = database
        self.config = config or ServerConfig()
        self.default_mode = mode
        self.default_options = options
        self._stats = ServerStats()
        # One condition guards every piece of admission state below.
        self._cond = threading.Condition()
        self._running = 0
        self._waiting = 0
        self._closed = False
        self._session_counter = 0
        self._query_counter = 0
        self._reserved_bytes = 0
        #: Exponential moving average of completed-query latency; seeds the
        #: retry-after hints (50ms until the first completion).
        self._latency_ewma: Optional[float] = None
        self._sessions: List[Session] = []
        self._active_tokens: Dict[int, CancelToken] = {}
        # Accounting-only governor for admission reservations: budget
        # checks happen under the server's own lock (the governor is not
        # internally synchronized), but reservations flow through it so the
        # suite-wide leak guard (buffer.assert_no_outstanding_reservations)
        # sees serving-layer leaks too.
        self._governor = MemoryGovernor(self.config.memory_budget_bytes)
        self._plan_cache = (
            PlanCache(self.config.plan_cache_entries)
            if self.config.plan_cache
            else None
        )
        self.query_log: Optional[QueryLog] = (
            QueryLog(self.config.query_log_entries)
            if self.config.query_log_entries
            else None
        )
        self.metrics = MetricsRegistry()
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Declare every serving instrument once, up front.

        Event-driven counters/histograms update as queries flow; the
        ``(sampled)`` gauges are refreshed from component state by
        :meth:`sample_metrics` whenever a snapshot or exposition is taken.
        """
        m = self.metrics
        self._m_queries = m.counter(
            "repro_server_queries_total", "Queries finished, by outcome.",
            labels=("outcome",),
        )
        self._m_rejections = m.counter(
            "repro_server_rejections_total",
            "Admission rejections, by typed reason.", labels=("reason",),
        )
        self._m_admission_wait = m.histogram(
            "repro_server_admission_wait_seconds",
            "Seconds queries spent queued for admission.",
        )
        self._m_latency = m.histogram(
            "repro_server_query_seconds", "End-to-end latency of served queries.",
        )
        self._m_active = m.gauge(
            "repro_server_active_queries", "Queries executing right now (sampled).",
        )
        self._m_queued = m.gauge(
            "repro_server_queued_queries",
            "Queries waiting in the admission queue (sampled).",
        )
        self._m_reserved = m.gauge(
            "repro_server_reserved_memory_bytes",
            "Bytes reserved by memory admission (sampled).",
        )
        self._m_retry_after = m.gauge(
            "repro_server_retry_after_seconds",
            "Current retry-after hint: latency EWMA scaled by queue depth (sampled).",
        )
        self._m_degradations = m.counter(
            "repro_degradations_total",
            "Degradation-ladder rungs taken across served queries, by rung family.",
            labels=("rung",),
        )
        self._m_output_rows = m.counter(
            "repro_server_output_rows_total", "Joined result rows produced.",
        )
        #: Per-query totals of ``exec.statistics.COUNTERS`` fields, by field.
        self._m_op_counters = {
            field: m.counter(name, help_text)
            for field, (name, help_text) in _OP_COUNTER_METRICS.items()
        }
        self._m_plan_cache_hits = m.gauge(
            "repro_plan_cache_hits", "Plan-cache hits (sampled).",
        )
        self._m_plan_cache_misses = m.gauge(
            "repro_plan_cache_misses", "Plan-cache misses (sampled).",
        )
        self._m_plan_cache_entries = m.gauge(
            "repro_plan_cache_entries", "Plans resident in the cache (sampled).",
        )
        self._m_artifact_entries = m.gauge(
            "repro_artifact_cache_entries", "Artifacts resident (sampled).",
        )
        self._m_artifact_bytes = m.gauge(
            "repro_artifact_cache_bytes",
            "Bytes charged to resident artifacts (sampled).",
        )
        self._m_artifact_evictions = m.gauge(
            "repro_artifact_cache_evictions", "Artifact-cache evictions (sampled).",
        )
        self._m_fault_injections = m.gauge(
            "repro_fault_injections",
            "Faults the active injector has fired, by site (sampled).",
            labels=("site",),
        )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(
        self,
        name: Optional[str] = None,
        mode: Optional[ExecutionMode] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> Session:
        """Open a client session (cheap; any number may be open at once)."""
        with self._cond:
            if self._closed:
                raise ReproError("server is closed; no new sessions")
            self._session_counter += 1
            session = Session(
                self,
                self._session_counter,
                name=name,
                mode=mode or self.default_mode,
                options=options if options is not None else self.default_options,
            )
            self._sessions.append(session)
            return session

    def _forget_session(self, session: Session) -> None:
        with self._cond:
            try:
                self._sessions.remove(session)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent copy of the serving counters, metrics, and query log."""
        with self._cond:
            stats = dc_replace(self._stats)
            if self._plan_cache is not None:
                stats.plan_cache_hits = self._plan_cache.hits
                stats.plan_cache_misses = self._plan_cache.misses
        stats.metrics = self.metrics_snapshot()
        stats.query_log = (
            self.query_log.records() if self.query_log is not None else []
        )
        return stats

    def sample_metrics(self) -> None:
        """Refresh the ``(sampled)`` gauges from live component state."""
        with self._cond:
            self._m_active.set(self._running)
            self._m_queued.set(self._waiting)
            self._m_reserved.set(self._reserved_bytes)
            self._m_retry_after.set(self._retry_after_locked())
        cache = self._plan_cache
        if cache is not None:
            self._m_plan_cache_hits.set(cache.hits)
            self._m_plan_cache_misses.set(cache.misses)
            self._m_plan_cache_entries.set(len(cache))
        # Component state lives on the shared database (same package;
        # sampling must not force either cache into existence).
        artifacts = self.database._artifact_cache
        if artifacts is not None:
            self._m_artifact_entries.set(len(artifacts))
            self._m_artifact_bytes.set(artifacts.current_bytes)
            self._m_artifact_evictions.set(artifacts.evictions)
        for site, count in faults.injection_counts().items():
            self._m_fault_injections.set(count, site=site)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat ``series name -> value`` snapshot (gauges freshly sampled)."""
        self.sample_metrics()
        return self.metrics.snapshot()

    def render_metrics(self) -> str:
        """Prometheus-style text exposition of every serving metric."""
        self.sample_metrics()
        return render_exposition(self.metrics)

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        return self._plan_cache

    @property
    def active_queries(self) -> int:
        with self._cond:
            return self._running

    @property
    def queued_queries(self) -> int:
        with self._cond:
            return self._waiting

    @property
    def reserved_memory_bytes(self) -> int:
        with self._cond:
            return self._reserved_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, cancel_active: bool = True, close_database: bool = False) -> None:
        """Stop admission, cancel (or drain) in-flight queries; idempotent.

        Queued queries are shed with :class:`AdmissionRejected`; running
        ones are cancelled through their tokens when ``cancel_active`` is
        True (they surface :class:`~repro.errors.QueryCancelled` to their
        clients), otherwise close blocks until they finish.  The underlying
        database is left open unless ``close_database`` is set — servers
        may share one database.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            tokens = list(self._active_tokens.values()) if cancel_active else []
        for token in tokens:
            token.cancel()
        with self._cond:
            while self._running:
                self._cond.wait()
        if self._plan_cache is not None:
            self._plan_cache.clear()
        if close_database:
            self.database.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _retry_after_locked(self) -> float:
        """Back-off hint: how long until a slot plausibly frees (lock held)."""
        latency = self._latency_ewma if self._latency_ewma is not None else 0.05
        depth = self._waiting + 1
        return max(0.01, latency * depth / self.config.max_concurrent)

    def _admit(self) -> float:
        """Take an execution slot; returns seconds spent queued.

        Raises :class:`AdmissionRejected` (typed, with a retry-after hint)
        when the bounded queue is full, the wait times out, or the server
        closes while waiting.
        """
        deadline = time.monotonic() + self.config.admission_timeout_seconds
        with self._cond:
            if self._closed:
                self._stats.rejected_closed += 1
                raise AdmissionRejected(
                    "server is closed", retry_after_seconds=0.0, reason="closed"
                )
            # Fast path only when nobody is already waiting (no barging).
            if self._running < self.config.max_concurrent and not self._waiting:
                self._running += 1
                self._stats.admitted += 1
                return 0.0
            if self._waiting >= self.config.max_queue:
                self._stats.rejected_queue_full += 1
                raise AdmissionRejected(
                    f"admission queue full ({self._waiting} waiting, "
                    f"{self._running} running)",
                    retry_after_seconds=self._retry_after_locked(),
                    reason="queue_full",
                )
            self._waiting += 1
            started = time.monotonic()
            try:
                while True:
                    if self._closed:
                        self._stats.rejected_closed += 1
                        raise AdmissionRejected(
                            "server closed while queued",
                            retry_after_seconds=0.0,
                            reason="closed",
                        )
                    if self._running < self.config.max_concurrent:
                        self._running += 1
                        self._stats.admitted += 1
                        self._stats.queued += 1
                        return time.monotonic() - started
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._stats.rejected_timeout += 1
                        raise AdmissionRejected(
                            f"admission wait exceeded "
                            f"{self.config.admission_timeout_seconds:.3f}s",
                            retry_after_seconds=self._retry_after_locked(),
                            reason="timeout",
                        )
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1

    def _release_slot(self) -> None:
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def _reserve_memory(self) -> Optional[str]:
        """Reserve this query's admission memory; None when disabled."""
        size = self.config.session_memory_bytes
        if not size:
            return None
        with self._cond:
            budget = self.config.memory_budget_bytes
            if budget is not None and self._reserved_bytes + size > budget:
                self._stats.rejected_memory += 1
                raise AdmissionRejected(
                    f"memory budget exhausted "
                    f"({self._reserved_bytes}/{budget} bytes reserved)",
                    retry_after_seconds=self._retry_after_locked(),
                    reason="memory",
                )
            self._query_counter += 1
            key = f"serving:q{self._query_counter}"
            # Non-evictable: admission reservations model a query's pinned
            # working set; inject=False keeps chaos alloc faults scoped to
            # execution, where the spill-retry rung handles them.
            self._governor.reserve(key, size, evictable=False, inject=False)
            self._reserved_bytes += size
            return key

    def _release_memory(self, key: Optional[str]) -> None:
        if key is None:
            return
        with self._cond:
            self._governor.release(key)
            self._reserved_bytes -= self.config.session_memory_bytes

    def _record_latency(self, seconds: float) -> None:
        with self._cond:
            if self._latency_ewma is None:
                self._latency_ewma = seconds
            else:
                self._latency_ewma = 0.8 * self._latency_ewma + 0.2 * seconds

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @staticmethod
    def _outcome_of(error: BaseException) -> str:
        if isinstance(error, AdmissionRejected):
            return "rejected"
        if isinstance(error, QueryTimeout):
            return "timeout"
        if isinstance(error, QueryCancelled):
            return "cancelled"
        return "failed"

    def _observe_query(
        self,
        session: Session,
        spec: Optional[QuerySpec],
        mode: ExecutionMode,
        outcome: str,
        queued_seconds: float,
        duration_seconds: float,
        result: Optional[QueryResult] = None,
        stats=None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Fold one finished/failed/rejected query into metrics + query log."""
        self._m_queries.inc(outcome=outcome)
        if isinstance(error, AdmissionRejected):
            self._m_rejections.inc(reason=getattr(error, "reason", "unknown"))
        else:
            self._m_admission_wait.observe(queued_seconds)
            self._m_latency.observe(duration_seconds)

        backend = ""
        plan_fingerprint = ""
        if result is not None:
            stats = result.stats
            if result.execution_config is not None:
                backend = result.execution_config.backend
            if result.physical_plan is not None:
                plan_fingerprint = sql_hash(
                    " ".join(op.kind for op in result.physical_plan.ops)
                )

        output_rows = 0
        op_seconds: Dict[str, float] = {}
        sections: Dict[str, Dict[str, int]] = {"cache": {}, "adaptive": {}}
        degradations: Dict[str, int] = {}
        if stats is not None:
            output_rows = stats.output_rows
            op_seconds = stats.op_seconds_by_kind()
            for counter in COUNTERS:
                metric = self._m_op_counters.get(counter.field)
                value = getattr(stats, counter.total) if counter.log or metric else 0
                if not value:
                    continue
                if counter.log:
                    section, _, key = counter.log.partition(".")
                    sections[section][key] = value
                if metric is not None:
                    metric.inc(value)
            degradations = dict(stats.degradation_counts)
            for rung, count in degradations.items():
                # Label by rung family (first two segments), keeping the
                # label space bounded against per-query suffixes like
                # "admission:queued:12ms".
                family = ":".join(rung.split(":")[:2])
                self._m_degradations.inc(count, rung=family)
            if outcome == "ok":
                self._m_output_rows.inc(output_rows)

        if self.query_log is None:
            return
        text = ""
        if spec is not None:
            try:
                # Same normal form the plan cache keys on, so one statement
                # shape shares a hash across syntactic variants.
                text = to_sql(spec, include_name=False)
            except PlanError:
                text = spec.name
        self.query_log.append(
            QueryLogRecord(
                query_name=spec.name if spec is not None else "",
                sql_hash=sql_hash(text),
                mode=mode.value,
                backend=backend,
                plan_fingerprint=plan_fingerprint,
                session=session.name,
                admission_wait_seconds=queued_seconds,
                duration_seconds=duration_seconds,
                output_rows=output_rows,
                op_seconds=op_seconds,
                cache=sections["cache"],
                adaptive=sections["adaptive"],
                degradations=degradations,
                outcome=outcome,
                error=str(error) if error is not None else "",
            )
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _plan_key(
        self,
        spec: QuerySpec,
        mode: ExecutionMode,
        options: ExecutionOptions,
        versions: Dict[str, int],
    ) -> Optional[PlanCacheKey]:
        try:
            text = to_sql(spec, include_name=False)
        except PlanError:
            # The rare spec shapes SQL cannot round-trip are simply not
            # plan-cached.
            return None
        token = repr((options.optimizer, options.estimation_error))
        return PlanCacheKey(
            text=text,
            mode=mode.value,
            versions=tuple(sorted(versions.items())),
            options_token=token,
        )

    def _execute(
        self,
        session: Session,
        source: Union[str, QuerySpec],
        mode: ExecutionMode,
        options: Optional[ExecutionOptions],
        name: Optional[str],
    ) -> Union[QueryResult, ExplainResult]:
        options = options or ExecutionOptions()
        spec: Optional[QuerySpec] = None
        queued_seconds = 0.0
        started = time.monotonic()
        try:
            queued_seconds = self._admit()
        except AdmissionRejected as error:
            self._observe_query(
                session,
                source if isinstance(source, QuerySpec) else None,
                mode,
                "rejected",
                queued_seconds=time.monotonic() - started,
                duration_seconds=0.0,
                error=error,
            )
            raise
        memory_key: Optional[str] = None
        token_id: Optional[int] = None
        snapshot = None
        try:
            memory_key = self._reserve_memory()
            explain = False
            if isinstance(source, str):
                compiled = compile_statement(
                    source, self.database.catalog, name=name
                )
                spec = compiled.query
                explain = compiled.explain
            else:
                spec = source
            if explain:
                explained = self.database.explain(spec, mode=mode, options=options)
                self._observe_query(
                    session,
                    spec,
                    mode,
                    "ok",
                    queued_seconds=queued_seconds,
                    duration_seconds=time.monotonic() - started,
                    stats=explained.stats,
                )
                return explained

            snapshot = self.database.catalog.snapshot(
                ref.table for ref in spec.relations
            )
            config = options.execution.resolved()
            cached_plan = None
            key = None
            if self._plan_cache is not None:
                key = self._plan_key(spec, mode, options, snapshot.versions())
                if key is not None:
                    cached_plan = self._plan_cache.get(key)

            # Deadline: explicit per-query timeout wins; otherwise the
            # server default, tightened to the shed timeout for queries
            # that had to queue.
            timeout = config.timeout_seconds
            if timeout is None:
                timeout = self.config.default_timeout_seconds
            shed = False
            if queued_seconds > 0 and self.config.shed_timeout_seconds is not None:
                if timeout is None or self.config.shed_timeout_seconds < timeout:
                    timeout = self.config.shed_timeout_seconds
                    shed = True
            token = options.cancel
            if token is None:
                token = CancelToken(timeout)
                options = dc_replace(options, cancel=token)
            token_id = id(token)
            with self._cond:
                if self._closed:
                    # Raced a close: surface the typed rejection rather
                    # than starting work close() will not wait for.
                    self._stats.rejected_closed += 1
                    raise AdmissionRejected(
                        "server is closed", retry_after_seconds=0.0, reason="closed"
                    )
                self._active_tokens[token_id] = token

            result = self.database.execute(
                spec,
                mode=mode,
                plan=cached_plan,
                options=options,
                snapshot=snapshot,
            )

            if key is not None and cached_plan is None:
                self._plan_cache.put(key, result.plan)
            if queued_seconds > 0:
                result.stats.record_degradation(
                    f"admission:queued:{queued_seconds * 1e3:.0f}ms"
                )
            if shed:
                result.stats.record_degradation(
                    f"admission:shed-timeout:{timeout:.3f}s"
                )
            elapsed = time.monotonic() - started
            self._record_latency(elapsed)
            with self._cond:
                self._stats.completed += 1
            self._observe_query(
                session,
                spec,
                mode,
                "ok",
                queued_seconds=queued_seconds,
                duration_seconds=elapsed,
                result=result,
            )
            return result
        except AdmissionRejected as error:
            self._observe_query(
                session,
                spec,
                mode,
                "rejected",
                queued_seconds=queued_seconds,
                duration_seconds=time.monotonic() - started,
                error=error,
            )
            raise
        except BaseException as error:
            with self._cond:
                self._stats.failed += 1
            self._observe_query(
                session,
                spec,
                mode,
                self._outcome_of(error),
                queued_seconds=queued_seconds,
                duration_seconds=time.monotonic() - started,
                # Typed deadline/cancel errors carry the aborted run's
                # partial statistics.
                stats=getattr(error, "stats", None),
                error=error,
            )
            raise
        finally:
            if snapshot is not None:
                snapshot.release()
            if token_id is not None:
                with self._cond:
                    self._active_tokens.pop(token_id, None)
            self._release_memory(memory_key)
            self._release_slot()
