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
  unbounded queues or hangs.
* **Deadlines** — every admitted query gets a
  :class:`~repro.exec.faults.CancelToken` carrying its
  ``ExecutionConfig.timeout_seconds`` (``REPRO_TIMEOUT_SECONDS``), which
  :meth:`Server.close` also uses to cancel it; a query that waited in the
  admission queue records the wait in ``ExecutionStats.degradations``.

A prepared-statement cache (:mod:`repro.engine.plancache`), always on, lets
a statement repeated over unchanged tables skip the SQL front end and
planning: it pays only for its base-filter masks and its execution.  A table
replace bumps the version and every stale entry simply misses.

Every query the server sees — executed, explained, failed or shed at
admission — is observed exactly once, when it ends: that one observation
feeds the outcome and rejection counters of the :class:`MetricsRegistry`,
appends the :class:`~repro.obs.querylog.QueryLogRecord` and counts the
query on its session, and :meth:`Server.stats` reads its outcome counts
back from those counters.

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

from repro.engine.database import Database, ExecutionOptions, ExplainResult, QueryResult
from repro.engine.modes import ExecutionMode
from repro.engine.plancache import PlanCache, pin_statement, prepare
from repro.engine.session import Session
from repro.errors import (
    AdmissionRejected,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.exec import faults
from repro.exec.faults import CancelToken
from repro.exec.statistics import COUNTERS
from repro.obs.export import render_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import QueryLog, QueryLogRecord, sql_hash
from repro.query import QuerySpec
from repro.sql import Statement

#: ``OpStats`` fields whose per-query totals are exported as serving
#: counters: field -> (metric name, help).
_OP_COUNTER_METRICS = {
    "hash_hits": ("repro_hash_cache_hits_total", "Bloom hashing passes reused."),
    "hash_misses": ("repro_hash_cache_misses_total", "Bloom hashing passes computed."),
    "artifact_hits": (
        "repro_artifact_cache_hits_total",
        "Artifact-cache hits across served queries.",
    ),
    "artifact_misses": (
        "repro_artifact_cache_misses_total",
        "Artifact-cache misses across served queries.",
    ),
}

#: Query outcomes that :attr:`ServerStats.failed` sums.
_FAILED_OUTCOMES = ("failed", "timeout", "cancelled")


@dataclass(frozen=True)
class ServerConfig:
    """The three admission knobs; every admission decision derives from them."""

    #: Queries allowed to execute concurrently.
    max_concurrent: int = 4
    #: Queries allowed to *wait* for a slot beyond the concurrent ones;
    #: admission beyond ``max_concurrent + max_queue`` rejects immediately.
    max_queue: int = 16
    #: Longest a query may wait in the admission queue before being shed.
    admission_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.admission_timeout_seconds < 0:
            raise ValueError("admission_timeout_seconds must be non-negative")


@dataclass
class ServerStats:
    """Monotonic serving counters (snapshot via :meth:`Server.stats`).

    ``completed`` / ``failed`` / ``rejected_*`` are read back from the
    ``repro_server_queries_total`` / ``repro_server_rejections_total``
    counters; ``failed`` sums the ``failed``, ``timeout`` and ``cancelled``
    outcomes.  ``admitted`` / ``queued`` count admission-state transitions.
    """

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    queued: int = 0
    rejected_queue_full: int = 0
    rejected_timeout: int = 0
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
        return self.rejected_queue_full + self.rejected_timeout + self.rejected_closed


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
        # One condition guards every piece of admission state below.
        self._cond = threading.Condition()
        self._running = 0
        self._waiting = 0
        self._admitted = 0
        self._queued = 0
        self._closed = False
        self._session_counter = 0
        #: Exponential moving average of completed-query latency; seeds the
        #: retry-after hints (50ms until the first completion).
        self._latency_ewma: Optional[float] = None
        self._sessions: List[Session] = []
        self._active_tokens: Dict[int, CancelToken] = {}
        self._plan_cache = PlanCache()
        self.query_log = QueryLog()
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
        """The serving counters, metrics, and query log."""
        with self._cond:
            admitted, queued = self._admitted, self._queued
        outcomes, reasons = self._m_queries, self._m_rejections
        return ServerStats(
            admitted=admitted,
            completed=int(outcomes.value(outcome="ok")),
            failed=int(sum(outcomes.value(outcome=o) for o in _FAILED_OUTCOMES)),
            queued=queued,
            rejected_queue_full=int(reasons.value(reason="queue_full")),
            rejected_timeout=int(reasons.value(reason="timeout")),
            rejected_closed=int(reasons.value(reason="closed")),
            plan_cache_hits=self._plan_cache.hits,
            plan_cache_misses=self._plan_cache.misses,
            metrics=self.metrics_snapshot(),
            query_log=self.query_log.records(),
        )

    def sample_metrics(self) -> None:
        """Refresh the ``(sampled)`` gauges from live component state."""
        with self._cond:
            self._m_active.set(self._running)
            self._m_queued.set(self._waiting)
            self._m_retry_after.set(self._retry_after_locked())
        cache = self._plan_cache
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
    def plan_cache(self) -> PlanCache:
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
                raise AdmissionRejected(
                    "server is closed", retry_after_seconds=0.0, reason="closed"
                )
            # Fast path only when nobody is already waiting (no barging).
            if self._running < self.config.max_concurrent and not self._waiting:
                self._running += 1
                self._admitted += 1
                return 0.0
            if self._waiting >= self.config.max_queue:
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
                        raise AdmissionRejected(
                            "server closed while queued",
                            retry_after_seconds=0.0,
                            reason="closed",
                        )
                    if self._running < self.config.max_concurrent:
                        self._running += 1
                        self._admitted += 1
                        self._queued += 1
                        return time.monotonic() - started
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
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
    def _outcome_of(error: Optional[BaseException]) -> str:
        if error is None:
            return "ok"
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
        statement: Optional[Statement],
        mode: ExecutionMode,
        queued_seconds: float,
        duration_seconds: float,
        answer: Union[QueryResult, ExplainResult, None],
        error: Optional[BaseException],
    ) -> None:
        """Fold one ended query — answered, failed or shed — into the
        metrics, the query log and its session's counters: the only writer
        of outcome counts."""
        outcome = self._outcome_of(error)
        session._count(outcome)
        self._m_queries.inc(outcome=outcome)
        if outcome == "rejected":
            self._m_rejections.inc(reason=error.reason)
        else:
            self._m_admission_wait.observe(queued_seconds)
            self._m_latency.observe(duration_seconds)
        if outcome == "ok":
            self._record_latency(duration_seconds)

        backend = ""
        plan_fingerprint = ""
        if answer is not None:
            if answer.execution_config is not None:
                backend = answer.execution_config.backend
            if answer.physical_plan is not None:
                plan_fingerprint = sql_hash(
                    " ".join(op.kind for op in answer.physical_plan.ops)
                )
        # Typed deadline/cancel errors carry the aborted run's partial
        # statistics.
        stats = answer.stats if answer is not None else getattr(error, "stats", None)

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

        name = statement.query.name if statement is not None else ""
        self.query_log.append(
            QueryLogRecord(
                query_name=name,
                # The normal form the plan cache keys on: one statement shape
                # shares a hash across syntactic variants.
                sql_hash=sql_hash((statement.text or name) if statement else ""),
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
    def _execute(
        self,
        session: Session,
        source: Union[str, QuerySpec],
        mode: ExecutionMode,
        options: Optional[ExecutionOptions],
        name: Optional[str],
    ) -> Union[QueryResult, ExplainResult]:
        options = options or ExecutionOptions()
        started = time.monotonic()
        statement = Statement(source) if isinstance(source, QuerySpec) else None
        queued_seconds: Optional[float] = None  # None until admitted
        snapshot = None
        token_id: Optional[int] = None
        answer = error = None
        try:
            queued_seconds = self._admit()
            cache, database = self._plan_cache, self.database
            statement, snapshot = pin_statement(source, name, database.catalog, cache)
            # The query's deadline (ExecutionConfig.timeout_seconds) rides
            # on a token close() can also cancel.
            token = options.cancel
            if token is None:
                token = CancelToken(options.execution.resolved().timeout_seconds)
                options = dc_replace(options, cancel=token)
            token_id = id(token)
            with self._cond:
                if self._closed:
                    # Raced a close: surface the typed rejection rather
                    # than starting work close() will not wait for.
                    raise AdmissionRejected(
                        "server is closed", retry_after_seconds=0.0, reason="closed"
                    )
                self._active_tokens[token_id] = token

            answer = database._answer(
                statement, mode, options, snapshot,
                lambda stats, pinned: prepare(
                    cache, database, statement, mode, options, stats, pinned
                ),
            )
            if queued_seconds > 0 and isinstance(answer, QueryResult):
                answer.stats.record_degradation(
                    f"admission:queued:{queued_seconds * 1e3:.0f}ms"
                )
            return answer
        except BaseException as exc:
            error = exc
            raise
        finally:
            if snapshot is not None:
                snapshot.release()
            if token_id is not None:
                with self._cond:
                    self._active_tokens.pop(token_id, None)
            admitted = queued_seconds is not None
            elapsed = time.monotonic() - started
            try:
                # A query shed at admission spent all of its time waiting.
                self._observe_query(
                    session,
                    statement,
                    mode,
                    queued_seconds if admitted else elapsed,
                    elapsed if admitted else 0.0,
                    answer,
                    error,
                )
            finally:
                if admitted:
                    self._release_slot()
