"""The pipeline executor: one run loop over a compiled :class:`PhysicalPlan`.

This is the single runtime behind every execution mode: the engine compiles
``(QuerySpec, JoinPlan, TransferSchedule)`` into one flat op list
(:mod:`repro.plan.physical`) and the :class:`PipelineExecutor` here runs it.
Transfer-phase ops (``BloomBuild``/``BloomProbe``/``SemiJoinReduce``,
:mod:`repro.exec.transfer_ops`) reduce
:class:`~repro.exec.relation.BoundRelation` objects in place; join-phase ops
(``HashBuild``/``HashProbe``, :mod:`repro.exec.join_ops`) flow through
late-materialized intermediate *slots*; ``Scan`` / ``FilterPush`` /
``Aggregate`` — here — open and finish the query.

:meth:`PipelineExecutor.run` applies the cross-cutting concerns once around
a type-keyed handler table (:data:`_OPS`): it opens one
:class:`~repro.exec.statistics.OpStats` record per op, points the counter
sources at it (``backend.record``, ``hash_cache.record``,
``governor.record``, the run state's), runs the handler —
``(run, op, record) -> None``, ``run`` being the call's
:class:`~repro.exec.run_state.RunState` — inside the timed window, and closes
and appends the record in a ``finally``.  Handlers and sources write each
counter once, into that record; totals, trace markers, span attributes and
events are derived from it through
:data:`~repro.exec.statistics.COUNTERS`.  ``ExecutionStats.op_stats`` is the
uniform per-op trace shared by all five modes.

How the probe/match hot loops run is the backend's business
(:mod:`repro.exec.backends`).  A
:class:`~repro.storage.buffer.MemoryGovernor`, when configured, is consulted
*during* execution: build sides reserve their rows, keys and index,
over-budget reservations spill through the
:class:`~repro.exec.spill.SpillManager` callback, and probing spilled state
charges the reload — surfaced per op in ``ExecutionStats.op_stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.bloom.bloom_filter import DEFAULT_FPR
from repro.core.join_graph import JoinGraph
from repro.errors import ExecutionError
from repro.exec import faults, join_ops, transfer_ops
from repro.exec.backends import ExecutionBackend, MorselBackend
from repro.exec.hashcache import HashCache
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.exec.run_state import RunState
from repro.exec.statistics import COUNTERS, ExecutionStats, OpStats
from repro.obs.trace import Span
from repro.plan.physical import (
    SCOPE_JOIN,
    SCOPE_TRANSFER,
    Aggregate,
    BloomBuild,
    BloomProbe,
    FilterPush,
    HashBuild,
    HashProbe,
    PhysicalPlan,
    Scan,
    SemiJoinReduce,
)
from repro.query import QuerySpec
from repro.storage.artifacts import ArtifactCache
from repro.storage.buffer import MemoryGovernor


# ---------------------------------------------------------------------------
# Options / result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TransferOptions:
    """Runtime knobs of the transfer phase (``ExecutionOptions.transfer``).

    ``fpr`` is the target false-positive rate of each Bloom filter;
    ``prune_trivial_semijoins`` skips steps whose source is an unfiltered PK
    side of a PK-FK join (§4.3 of the paper — the semi-join cannot eliminate
    anything).  Bloom vs exact semi-joins is the execution mode's choice,
    compiled into the plan.
    """

    fpr: float = DEFAULT_FPR
    prune_trivial_semijoins: bool = True


@dataclass(frozen=True)
class JoinPhaseOptions:
    """Runtime knobs of the join phase (``ExecutionOptions.join``).

    ``fpr`` is the false-positive rate of the Bloom Join baseline's per-join
    filters; ``allow_cartesian_products`` permits join nodes whose two sides
    share no attribute class (the random plan generators never produce such
    plans; it exists so tests can exercise the error path).
    """

    fpr: float = DEFAULT_FPR
    allow_cartesian_products: bool = False


@dataclass
class BaseFilter:
    """One base-table predicate the engine evaluated while planning.

    ``counters`` holds what the evaluation counted, by :class:`OpStats`
    field (zone-map activity); the alias's ``FilterPush``
    record — executed or ``EXPLAIN``-ed — takes them over.
    """

    mask: np.ndarray
    counters: Dict[str, int] = field(default_factory=dict)

    def write_counters(self, record: OpStats) -> None:
        for name, value in self.counters.items():
            setattr(record, name, value)


@dataclass
class PipelineResult:
    """Outcome of one :meth:`PipelineExecutor.run` call."""

    relations: Dict[str, BoundRelation]
    aggregates: Optional[Dict[str, float]] = None


class PipelineExecutor:
    """Runs a compiled :class:`~repro.plan.physical.PhysicalPlan` op list.

    One executor instance is one query's configuration — graph, options,
    backend, governor, caches — and serves one execution; what a run
    accumulates lives in its :class:`~repro.exec.run_state.RunState`.  The
    backend decides how the probe hot loops run.
    """

    def __init__(
        self,
        query: QuerySpec,
        graph: JoinGraph,
        catalog=None,
        transfer: Optional[TransferOptions] = None,
        join: Optional[JoinPhaseOptions] = None,
        backend: Optional[ExecutionBackend] = None,
        governor: Optional[MemoryGovernor] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        table_versions: Optional[Mapping[str, int]] = None,
        fingerprints: Optional[Mapping[str, str]] = None,
        adaptive_transfer: bool = False,
        arena=None,
        encodings: bool = False,
        tracer=None,
    ) -> None:
        self.query = query
        self.graph = graph
        self.catalog = catalog
        self.transfer = transfer or TransferOptions()
        self.join = join or JoinPhaseOptions()
        self.backend = backend or MorselBackend()
        self.governor = governor
        #: Query-lifetime hash cache: each key column is hashed once and the
        #: pass replayed across every Bloom insert/probe.
        self.hash_cache = HashCache()
        #: Cross-query artifact cache + the identity context needed to key
        #: it (catalog table versions and base-filter fingerprints, both
        #: supplied by the engine; direct callers run without them).
        self.artifact_cache = artifact_cache
        self.table_versions = dict(table_versions or {})
        self.fingerprints = dict(fingerprints or {})
        #: Adaptive transfer execution: yield-driven pass skipping
        #: (controller built per run from the compiled plan).
        self.adaptive_transfer = adaptive_transfer
        #: Shared-memory column arena (engine-owned); set together with a
        #: probe-shipping backend so transfer probes can hand workers a
        #: (column ref, selection vector) pair instead of gathered keys.
        self.arena = arena
        #: Block-encoded execution: transfer probes prefer the arena's
        #: *encoded* column segments, and every cache key (hash cache,
        #: artifact cache) carries the column's encoding token so encoded
        #: and raw artifacts never alias at the same catalog version.
        self.encodings = encodings
        #: Optional :class:`~repro.obs.trace.Tracer`: when set, the run
        #: loop records one ``op`` span per dispatched op (grouped under
        #: ``phase`` spans) with a ``batch`` child summarizing morsel
        #: fan-out.  Purely observational — results are bit-identical.
        self.tracer = tracer
        if tracer is not None and hasattr(self.backend, "trace_morsels"):
            # Process workers time their morsels locally and ship the
            # seconds back piggybacked on the morsel payload.
            self.backend.trace_morsels = True

    def run(
        self,
        plan: PhysicalPlan,
        stats: ExecutionStats,
        filters: Optional[Mapping[str, BaseFilter]] = None,
    ) -> PipelineResult:
        """Execute every op of ``plan`` in order, one :class:`OpStats` record each.

        ``filters`` supplies the base predicates the engine already evaluated
        while planning (mask plus what the evaluation counted), so
        ``FilterPush`` neither evaluates them again nor loses their counters;
        an alias without an entry is evaluated here.  The record of the op
        in flight when a query aborts is kept, marked ``aborted``.
        """
        run = RunState(self, plan, stats, filters)
        governor = self.governor
        cancel = self.backend.cancel
        tracer = self.tracer
        phase_span = None
        try:
            for index, op in enumerate(plan):
                if cancel is not None:
                    cancel.check()
                try:
                    phase, handler = _OPS[type(op), getattr(op, "scope", None)]
                except KeyError:
                    raise ExecutionError(f"pipeline executor cannot run op {op!r}") from None
                record = OpStats(index=index, kind=op.kind, detail=op.describe())
                run.record = self.backend.record = self.hash_cache.record = record
                if governor is not None:
                    governor.record = record
                span = None
                if tracer is not None:
                    if phase_span is None or phase_span.name != phase:
                        if phase_span is not None:
                            tracer.finish(phase_span)
                        phase_span = tracer.start(phase, "phase")
                    span = tracer.start(op.kind, "op", index=index)
                start = time.perf_counter()
                try:
                    delay = faults.injected_latency()
                    if delay:
                        # Injected operator latency sleeps inside the timed
                        # window, so the slowed op owns the time in its
                        # record and its span; a deadline it blows aborts
                        # this op, not the next one.
                        time.sleep(delay)
                        if tracer is not None:
                            tracer.event("fault:op.latency", seconds=delay)
                        if cancel is not None:
                            cancel.check()
                    handler(run, op, record)
                    if governor is not None:
                        # The cached hash/pattern arrays are real memory;
                        # keep their reservation current inside the op that
                        # grew the cache, so spills it forces land on this
                        # record.  Non-evictable: the cache dies with the run.
                        run.governed_reserve(
                            "hash_cache", self.hash_cache.nbytes, evictable=False
                        )
                except BaseException:
                    record.aborted = True
                    raise
                finally:
                    record.seconds = time.perf_counter() - start
                    setattr(stats.timings, phase, getattr(stats.timings, phase) + record.seconds)
                    if record.inline_morsels:
                        record.degraded = record.degraded or "process:inline-fallback"
                        stats.record_degradation("process:inline-fallback")
                    stats.op_stats.append(record)
                    if span is not None:
                        self._finish_op_span(span, record)
            if phase_span is not None:
                tracer.finish(phase_span)
        finally:
            # Any exit path — completion, injected fault, timeout,
            # cancellation — leaves zero outstanding reservations (the leak
            # guard asserts it): artifact and arena residency was charged
            # for this run's accounting only, and the hash cache dies with
            # the executor.
            if governor is not None:
                stats.peak_memory_bytes = max(stats.peak_memory_bytes, governor.peak_reserved_bytes)
                governor.release_all()
        return PipelineResult(relations=run.relations, aggregates=run.aggregates)

    def _finish_op_span(self, span: Span, record: OpStats) -> None:
        """Close an op span from its record: ``batch`` child, events, attributes."""
        if record.morsels:
            # One summary child per fanned-out op: morsel count plus
            # (process backend only) the worker-side seconds shipped back
            # with the morsel payloads.
            seconds = record.worker_seconds if record.worker_batches else record.seconds
            span.children.append(
                Span(
                    name="morsels",
                    kind="batch",
                    start=span.start,
                    end=span.start + seconds,
                    attrs={"count": record.morsels, "worker_batches": record.worker_batches},
                )
            )
        fields = vars(record)
        attrs = {}
        for counter in COUNTERS:
            value = fields[counter.field]
            if value:
                attrs[counter.field] = value
                if counter.event:
                    self.tracer.event(
                        counter.event, **{attr: fields[name] for attr, name in counter.event_attrs}
                    )
        self.tracer.finish(
            span,
            rows_in=record.rows_in,
            rows_out=record.rows_out,
            skipped=record.skipped,
            detail=record.detail,
            **attrs,
        )


# ---------------------------------------------------------------------------
# Scan / filter / aggregate handlers
# ---------------------------------------------------------------------------
def _scan(run: RunState, op: Scan, record: OpStats) -> None:
    if run.ex.catalog is None:
        raise ExecutionError("pipeline plans with Scan ops require a catalog")
    table = run.ex.catalog.table(op.table)
    relation = run.relations[op.alias] = BoundRelation.from_table(op.alias, table)
    run.base_versions[op.alias] = relation.version
    run.stats.base_rows[op.alias] = table.num_rows
    run.stats.filtered_rows[op.alias] = table.num_rows
    record.rows_in = record.rows_out = table.num_rows


def _filter_push(run: RunState, op: FilterPush, record: OpStats) -> None:
    relation = run.relations[op.alias]
    record.rows_in = record.rows_out = relation.num_rows
    evaluated = run.filters.get(op.alias)
    if evaluated is not None:
        mask = evaluated.mask
        evaluated.write_counters(record)
    else:
        ref = next((ref for ref in run.ex.query.relations if ref.alias == op.alias), None)
        if ref is None or ref.filter is None:
            record.skipped = True
            return
        mask = np.asarray(ref.filter.evaluate(relation.table), dtype=bool)
    relation.keep(mask)
    run.base_versions[op.alias] = relation.version
    run.stats.filtered_rows[op.alias] = record.rows_out = relation.num_rows


def _aggregate(run: RunState, op: Aggregate, record: OpStats) -> None:
    final = run.materialize(op.input)
    record.rows_in = final.num_rows
    final = join_ops.apply_ready_predicates(run, final, force_all=True)
    run.stats.output_rows = record.rows_out = final.num_rows
    run.aggregates = compute_aggregates(run.ex.query, run.relations, final)


#: The dispatch table: ``(op type, scope) -> (phase its time is accounted
#: under, handler)``.  Only Bloom ops carry a scope; a join-scoped pair is
#: the Bloom Join baseline's per-join prefilter.
_OPS = {
    (Scan, None): ("scan_filter", _scan),
    (FilterPush, None): ("scan_filter", _filter_push),
    (BloomBuild, SCOPE_TRANSFER): ("transfer", transfer_ops.bloom_build),
    (BloomProbe, SCOPE_TRANSFER): ("transfer", transfer_ops.bloom_probe),
    (SemiJoinReduce, None): ("transfer", transfer_ops.semi_join_reduce),
    (BloomBuild, SCOPE_JOIN): ("join", join_ops.bloom_build),
    (BloomProbe, SCOPE_JOIN): ("join", join_ops.bloom_probe),
    (HashBuild, None): ("join", join_ops.hash_build),
    (HashProbe, None): ("join", join_ops.hash_probe),
    (Aggregate, None): ("aggregate", _aggregate),
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def compute_aggregates(
    query: QuerySpec,
    relations: Dict[str, BoundRelation],
    result: IntermediateResult,
) -> Dict[str, float]:
    """Compute a query's aggregates over the final joined result."""
    values: Dict[str, float] = {}
    for index, spec in enumerate(query.aggregates):
        name = spec.output_name or f"agg_{index}"
        if spec.function == "count":
            values[name] = float(result.num_rows)
            continue
        assert spec.alias is not None and spec.column is not None
        column_values = result.column_values(relations, spec.alias, spec.column)
        values[name] = _apply_aggregate(spec.function, column_values)
    return values


def _apply_aggregate(function: str, values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    if function == "sum":
        return float(values.sum())
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    if function == "avg":
        return float(values.mean())
    raise ExecutionError(f"unsupported aggregate function {function!r}")
