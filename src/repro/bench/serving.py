"""Closed-loop concurrent serving benchmark over the checked-in SQL files.

The driver stands up one :class:`~repro.engine.server.Server` per workload
database (the three synthetic instances, TPC-H, JOB, and TPC-DS — the same
databases :func:`repro.workloads.sqlfiles.run_all` binds against), routes
each of the checked-in ``.sql`` files to its server, and runs ``N``
closed-loop client threads: every client holds one session per server,
pulls the next statement from a shared work queue, and issues the next
query only after the previous one finishes — the classic closed-loop
offered-load model (mirroring the multi-replica runner shape this repo's
references use).

Three things are measured and enforced:

* **latency/throughput** — per-query wall latencies aggregated to
  p50/p95/p99 plus overall QPS, recorded into ``BENCH_serving.json`` by
  the microbench suite;
* **bit-identity under concurrency** — every completed query's aggregates
  must equal a single-threaded serial baseline computed before serving
  started (any divergence raises :class:`~repro.errors.WorkloadError`);
* **typed overload/chaos behaviour** — with a fault plan configured
  (chaos mode) or with admission capacity below the offered load
  (overload mode), every query must either complete bit-identically or
  raise a typed :class:`~repro.errors.ReproError`
  (:class:`~repro.errors.AdmissionRejected` rejections are counted and,
  optionally, retried after their hint), and the run must end with zero
  outstanding governor reservations.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.database import Database, ExecutionOptions
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.engine.server import Server, ServerConfig
from repro.errors import AdmissionRejected, ReproError, WorkloadError
from repro.workloads import sqlfiles


@dataclass
class ServingFleet:
    """The serving side of one benchmark run: databases, servers, routing."""

    servers: Dict[str, Server]
    databases: Dict[str, Database]
    #: SQL file stem -> the ``servers``/``databases`` key that owns it.
    routes: Dict[str, str]
    texts: Dict[str, str]
    #: Stem -> fault-free single-threaded serial aggregates (the
    #: bit-identity reference every concurrent completion is checked against).
    baselines: Dict[str, Dict[str, float]]
    mode: ExecutionMode
    scale: float = 0.0

    def close(self) -> None:
        """Close every server, then every database; idempotent."""
        for server in self.servers.values():
            server.close()
        for database in self.databases.values():
            database.close()


def build_serving_fleet(
    scale: float = 0.05,
    seed: int = 1,
    stems: Optional[List[str]] = None,
    server_config: Optional[ServerConfig] = None,
    mode: ExecutionMode = ExecutionMode.RPT,
    options: Optional[ExecutionOptions] = None,
    compute_baselines: bool = True,
) -> ServingFleet:
    """Build the workload databases, a server per database, and baselines.

    Baselines are computed *before* any concurrency, single-threaded on
    the serial backend with fault injection cleared — the reference the
    acceptance contract compares every concurrent completion against.
    ``stems`` restricts the fleet to a subset of the checked-in files.
    """
    from repro.exec import faults

    selected = {
        stem: path
        for stem, path in sqlfiles.available().items()
        if stems is None or stem in stems
    }
    if not selected:
        raise WorkloadError("no SQL files selected for the serving fleet")

    databases: Dict[str, Database] = {}
    routes: Dict[str, str] = {}
    texts: Dict[str, str] = {}
    for stem, path in selected.items():
        sqlfiles.database_of(stem, databases, scale=scale, seed=seed)
        routes[stem] = sqlfiles.database_key(stem)
        texts[stem] = path.read_text()

    baselines: Dict[str, Dict[str, float]] = {}
    if compute_baselines:
        faults.clear()
        serial = ExecutionOptions(execution=ExecutionConfig(backend="serial"))
        for stem in selected:
            db = databases[routes[stem]]
            baselines[stem] = dict(
                db.sql(texts[stem], mode=mode, options=serial).aggregates
            )

    config = server_config or ServerConfig()
    servers = {
        key: Server(database, config, mode=mode, options=options)
        for key, database in databases.items()
    }
    return ServingFleet(
        servers=servers,
        databases=databases,
        routes=routes,
        texts=texts,
        baselines=baselines,
        mode=mode,
        scale=scale,
    )


@dataclass
class ServingReport:
    """The outcome of one closed-loop run (one ``BENCH_serving`` measurement)."""

    kind: str
    clients: int
    backend: str
    mode: str
    scale: float
    statements: int
    attempted: int
    completed: int
    #: AdmissionRejected occurrences (each retry attempt counts once).
    rejected: int
    #: Statements dropped after exhausting their rejection retries (always
    #: 0 when ``retry_rejections`` and capacity admit everything eventually).
    shed: int
    typed_errors: Dict[str, int]
    queued: int
    plan_cache_hits: int
    plan_cache_misses: int
    wall_seconds: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    qps: float
    verified: bool
    degradations: Dict[str, int] = field(default_factory=dict)
    #: Fleet-wide change in every metrics series over the run (summed across
    #: servers, zero-delta series dropped) — what this regime *did* to the
    #: counters, independent of whatever ran before it.
    metrics_delta: Dict[str, float] = field(default_factory=dict)
    #: Top-3 slowest query-log records across the fleet, summarized
    #: (name, session, outcome, duration, admission wait, top op timings).
    slowest_queries: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "clients": self.clients,
            "backend": self.backend,
            "mode": self.mode,
            "scale": self.scale,
            "statements": self.statements,
            "attempted": self.attempted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "typed_errors": dict(self.typed_errors),
            "queued": self.queued,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "wall_seconds": self.wall_seconds,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "qps": self.qps,
            "verified": self.verified,
            "degradations": dict(self.degradations),
            "metrics_delta": dict(self.metrics_delta),
            "slowest_queries": list(self.slowest_queries),
        }


def run_serving_benchmark(
    fleet: ServingFleet,
    clients: int = 8,
    rounds: int = 1,
    seed: int = 17,
    backend: str = "serial",
    options: Optional[ExecutionOptions] = None,
    fault_spec: Optional[str] = None,
    retry_rejections: bool = True,
    max_retries: int = 16,
    kind: Optional[str] = None,
    verify: bool = True,
    check_leaks: bool = True,
) -> ServingReport:
    """Run ``clients`` closed-loop threads over the fleet's statements.

    The work queue holds ``rounds`` deterministic shuffles of every routed
    statement; each client claims the next statement only after finishing
    (or exhausting retries for) its previous one.  With ``fault_spec`` the
    process-global injector is configured for the whole run (per-query
    fault scoping is not concurrency-safe) and cleared afterwards.

    Every completion is verified bit-identical against the fleet's serial
    baseline; every failure must be a typed :class:`ReproError` (anything
    else propagates).  With ``check_leaks`` the run asserts zero
    outstanding governor reservations at the end.
    """
    from repro.exec import faults
    from repro.storage import buffer

    if clients <= 0:
        raise WorkloadError("serving benchmark needs at least one client")
    if options is None:
        options = ExecutionOptions(execution=ExecutionConfig(backend=backend))
    if verify and not fleet.baselines:
        raise WorkloadError(
            "fleet was built without baselines; pass compute_baselines=True "
            "or verify=False"
        )

    rng = np.random.default_rng(seed)
    stems = sorted(fleet.routes)
    work: List[str] = []
    for _ in range(max(rounds, 1)):
        order = list(stems)
        rng.shuffle(order)
        work.extend(order)

    queue_lock = threading.Lock()
    queue_index = [0]

    def next_stem() -> Optional[str]:
        with queue_lock:
            if queue_index[0] >= len(work):
                return None
            stem = work[queue_index[0]]
            queue_index[0] += 1
            return stem

    latencies: List[float] = []
    typed_errors: Dict[str, int] = {}
    degradations: Dict[str, int] = {}
    counters = {"attempted": 0, "completed": 0, "rejected": 0, "shed": 0}
    mismatches: List[str] = []
    hard_failures: List[BaseException] = []
    record_lock = threading.Lock()

    def client_loop(client_id: int) -> None:
        sessions = {
            key: server.session(f"bench-c{client_id}-{key}")
            for key, server in fleet.servers.items()
        }
        try:
            while True:
                stem = next_stem()
                if stem is None:
                    return
                session = sessions[fleet.routes[stem]]
                text = fleet.texts[stem]
                attempts = 0
                while True:
                    with record_lock:
                        counters["attempted"] += 1
                    started = time.monotonic()
                    try:
                        result = session.sql(text, options=options)
                    except AdmissionRejected as rejection:
                        with record_lock:
                            counters["rejected"] += 1
                        if not retry_rejections or attempts >= max_retries:
                            with record_lock:
                                counters["shed"] += 1
                            break
                        attempts += 1
                        time.sleep(min(max(rejection.retry_after_seconds, 0.0), 0.25))
                        continue
                    except ReproError as error:
                        # Typed chaos outcome (fault, timeout, cancel, ...):
                        # acceptable; anything untyped propagates below.
                        with record_lock:
                            name = type(error).__name__
                            typed_errors[name] = typed_errors.get(name, 0) + 1
                        break
                    elapsed = time.monotonic() - started
                    with record_lock:
                        counters["completed"] += 1
                        latencies.append(elapsed)
                        for note in result.stats.degradations:
                            tag = ":".join(note.split(":")[:2])
                            degradations[tag] = degradations.get(tag, 0) + 1
                        if verify and dict(result.aggregates) != fleet.baselines[stem]:
                            mismatches.append(
                                f"{stem}: {dict(result.aggregates)} != "
                                f"{fleet.baselines[stem]}"
                            )
                    break
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            with record_lock:
                hard_failures.append(error)
        finally:
            for session in sessions.values():
                session.close()

    # Metrics baseline: servers may be reused across regimes, so the report
    # carries this run's *delta*, not the servers' lifetime totals.
    metrics_before: Dict[str, float] = {}
    for server in fleet.servers.values():
        for series, value in server.metrics_snapshot().items():
            metrics_before[series] = metrics_before.get(series, 0.0) + value

    if fault_spec is not None:
        faults.configure(fault_spec)
    try:
        wall_started = time.monotonic()
        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"serving-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.monotonic() - wall_started
    finally:
        if fault_spec is not None:
            faults.clear()

    if hard_failures:
        raise hard_failures[0]
    if mismatches:
        raise WorkloadError(
            "concurrent serving diverged from the single-threaded serial "
            f"baseline: {mismatches[:5]}"
        )

    if check_leaks:
        gc.collect()
        outstanding = buffer.outstanding_reservations()
        if outstanding:
            raise WorkloadError(
                f"serving run leaked governor reservations: {outstanding}"
            )

    queued = 0
    plan_hits = 0
    plan_misses = 0
    metrics_after: Dict[str, float] = {}
    log_records = []
    for server in fleet.servers.values():
        stats = server.stats()
        queued += stats.queued
        plan_hits += stats.plan_cache_hits
        plan_misses += stats.plan_cache_misses
        for series, value in stats.metrics.items():
            metrics_after[series] = metrics_after.get(series, 0.0) + value
        if server.query_log is not None:
            log_records.extend(server.query_log.slowest(3))
    metrics_delta = {
        series: round(value - metrics_before.get(series, 0.0), 9)
        for series, value in sorted(metrics_after.items())
        if value != metrics_before.get(series, 0.0)
    }
    slowest_queries: List[Dict[str, object]] = [
        {
            "query_name": record.query_name,
            "session": record.session,
            "outcome": record.outcome,
            "backend": record.backend,
            "duration_ms": round(record.duration_seconds * 1e3, 3),
            "admission_wait_ms": round(record.admission_wait_seconds * 1e3, 3),
            "op_seconds": {
                op: round(seconds, 6)
                for op, seconds in sorted(
                    record.op_seconds.items(), key=lambda kv: kv[1], reverse=True
                )[:3]
            },
            "degradations": dict(record.degradations),
        }
        for record in sorted(
            log_records, key=lambda r: r.duration_seconds, reverse=True
        )[:3]
    ]

    ordered = sorted(seconds * 1e3 for seconds in latencies)

    def percentile(q: float) -> float:
        if not ordered:
            return 0.0
        return float(np.percentile(ordered, q))

    return ServingReport(
        kind=kind or ("chaos" if fault_spec else "clean"),
        clients=clients,
        backend=backend,
        mode=fleet.mode.value,
        scale=fleet.scale,
        statements=len(stems),
        attempted=counters["attempted"],
        completed=counters["completed"],
        rejected=counters["rejected"],
        shed=counters["shed"],
        typed_errors=typed_errors,
        queued=queued,
        plan_cache_hits=plan_hits,
        plan_cache_misses=plan_misses,
        wall_seconds=wall_seconds,
        p50_ms=percentile(50),
        p95_ms=percentile(95),
        p99_ms=percentile(99),
        qps=(counters["completed"] / wall_seconds) if wall_seconds > 0 else 0.0,
        verified=verify and not mismatches,
        degradations=degradations,
        metrics_delta=metrics_delta,
        slowest_queries=slowest_queries,
    )


def format_serving_report(report: ServingReport) -> str:
    """Human-readable one-measurement summary (for ``print_report``)."""
    lines = [
        f"serving[{report.kind}] {report.clients} clients x "
        f"{report.statements} statements on {report.backend}/{report.mode}",
        f"  completed {report.completed}/{report.attempted} attempts, "
        f"rejected {report.rejected}, shed {report.shed}, queued {report.queued}",
        f"  latency p50 {report.p50_ms:.1f}ms  p95 {report.p95_ms:.1f}ms  "
        f"p99 {report.p99_ms:.1f}ms  qps {report.qps:.1f} "
        f"(wall {report.wall_seconds:.2f}s)",
        f"  plan cache {report.plan_cache_hits} hits / "
        f"{report.plan_cache_misses} misses; verified={report.verified}",
    ]
    if report.typed_errors:
        lines.append(f"  typed errors: {dict(sorted(report.typed_errors.items()))}")
    if report.degradations:
        lines.append(f"  degradations: {dict(sorted(report.degradations.items()))}")
    for entry in report.slowest_queries:
        lines.append(
            f"  slowest: {entry['query_name']} ({entry['session']}) "
            f"{entry['duration_ms']:.1f}ms waited {entry['admission_wait_ms']:.1f}ms "
            f"outcome={entry['outcome']}"
        )
    return "\n".join(lines)
