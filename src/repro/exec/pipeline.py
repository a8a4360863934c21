"""Backend-pluggable pipeline executor for compiled :class:`PhysicalPlan` ops.

This is the single runtime behind every execution mode: the engine compiles
``(QuerySpec, JoinPlan, TransferSchedule)`` into one flat op list
(:mod:`repro.plan.physical`) and the :class:`PipelineExecutor` here runs it.
Transfer-phase ops (``BloomBuild``/``BloomProbe``/``SemiJoinReduce``) reduce
:class:`~repro.exec.relation.BoundRelation` objects in place; join-phase ops
(``HashBuild``/``HashProbe``) flow through late-materialized intermediate
*slots*; ``Aggregate`` finishes the query.

:meth:`PipelineExecutor.run` applies the cross-cutting concerns once around
a type-keyed handler table (:data:`_OPS`): it opens one
:class:`~repro.exec.statistics.OpStats` record per op, points the counter
sources at it (``backend.record``, ``hash_cache.record``,
``governor.record``), runs the handler — ``(op, record) -> None`` — inside
the timed window, and closes and appends the record in a ``finally``.
Handlers and sources write each counter once, into that record; totals,
trace markers, span attributes and events are derived from it through
:data:`~repro.exec.statistics.COUNTERS`.  ``ExecutionStats.op_stats`` is the
uniform per-op trace shared by all five modes.

Two backend classes implement the probe/match hot loops, selected by four
names (:func:`make_backend`):

* :class:`MorselBackend` — the in-process backend: probe inputs are cut
  into morsels, each morsel runs the same vectorized NumPy kernel, and the
  parts are concatenated in order, so every result is bit-identical to one
  whole-column call.  ``"serial"`` (one thread, whole column — the default),
  ``"chunked"`` (one thread, :data:`DEFAULT_CHUNK_SIZE`-row
  morsels) and ``"parallel"`` (a ``ThreadPoolExecutor`` over
  :data:`DEFAULT_MORSEL_SIZE`-row morsels; the kernels release the GIL on
  large inputs) are presets of it.
* :class:`~repro.exec.process.ProcessBackend` (``"process"``) — the same
  scheduling over worker processes reading shared-memory columns.

Radix-partitioned joins (``Partition`` / ``PartitionedHashBuild`` /
``PartitionedHashProbe`` ops) execute on any backend; with a thread pool
each partition is an independent task.  A
:class:`~repro.storage.buffer.MemoryGovernor`, when configured, is consulted
*during* execution: build sides and partitions reserve budget before
materializing, over-budget reservations spill through the
:class:`~repro.exec.spill.SpillManager` callback, and probing spilled state
charges the reload — surfaced per op in ``ExecutionStats.op_stats``.

The executor also owns the cross-pipeline :class:`~repro.exec.kernels.HashIndex`
cache: a build side probed by multiple pipelines (e.g. a join-tree node that
reduces several children during the backward transfer pass) is sorted once
and the sorted index is reused until the relation is reduced again.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bloom.bloom_filter import DEFAULT_FPR, BloomFilter, hash_keys, key_patterns
from repro.core.join_graph import JoinGraph
from repro.errors import BackendUnavailable, CatalogError, ExecutionError, MemoryExhausted
from repro.exec import faults
from repro.exec.adaptive import AdaptiveTransferController
from repro.exec.faults import CancelToken
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    PartitionedHashIndex,
    bloom_probe_cost,
    combine_key_columns_pair,
    hash_probe_cost,
)
from repro.exec.hashcache import HashCache
from repro.exec.parallel import gather_in_order
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.obs.trace import Span
from repro.exec.statistics import (
    COUNTERS,
    ExecutionStats,
    JoinStepStats,
    OpStats,
    TransferStepStats,
)
from repro.plan.physical import (
    SCOPE_JOIN,
    SCOPE_TRANSFER,
    Aggregate,
    BloomBuild,
    BloomProbe,
    FilterPush,
    HashBuild,
    HashProbe,
    Operand,
    Partition,
    PartitionedHashBuild,
    PartitionedHashProbe,
    PhysicalPlan,
    Scan,
    SemiJoinReduce,
)
from repro.query import PostJoinPredicate, QuerySpec
from repro.storage.artifacts import (
    FINGERPRINT_COLUMN,
    KIND_BLOOM,
    KIND_BLOOM_PASS,
    KIND_HASH_INDEX,
    ArtifactCache,
    ArtifactKey,
)
from repro.storage.buffer import MemoryGovernor

#: The names :func:`make_backend` accepts.
BACKEND_NAMES = ("serial", "chunked", "parallel", "process")

#: Threads the parallel backend uses when not configured explicitly: one per
#: CPU, capped at the paper testbed's 32.
MAX_DEFAULT_THREADS = 32

#: Morsel granularity of the chunked preset: DuckDB's push-based engine
#: processes data in fixed-size *data chunks* of 2048 tuples (its vector
#: size), and the Figure 14 model caps a pipeline's parallelism by the number
#: of such chunks its probe side provides.
DEFAULT_CHUNK_SIZE = 2048

#: Morsel granularity of the parallel preset.  Larger than the chunked
#: preset's: each morsel must carry enough work to amortize task dispatch in
#: pure Python.
DEFAULT_MORSEL_SIZE = 32_768


def num_chunks(total_rows: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of chunks needed for ``total_rows`` rows."""
    if total_rows <= 0:
        return 0
    return (total_rows + chunk_size - 1) // chunk_size


#: A probe input: one key array, or a tuple of equal-length per-row arrays
#: (e.g. a precomputed (hashes, patterns) pair).  Backends slice every
#: component identically when cutting morsels, so a probe function receives
#: aligned slices.
ProbeInput = Union[np.ndarray, Tuple[np.ndarray, ...]]


def _as_probe_input(keys: ProbeInput) -> ProbeInput:
    if isinstance(keys, tuple):
        return tuple(np.asarray(part) for part in keys)
    return np.asarray(keys)


def _probe_rows(keys: ProbeInput) -> int:
    if isinstance(keys, tuple):
        return int(keys[0].shape[0])
    return int(keys.shape[0])


def _slice_probe_input(keys: ProbeInput, lo: int, hi: int) -> ProbeInput:
    if isinstance(keys, tuple):
        return tuple(part[lo:hi] for part in keys)
    return keys[lo:hi]


def _probe_input_rows(keys) -> int:
    """Row count of a probe input, including the process backend's lazy
    :class:`~repro.exec.process.ShmGather` (duck-typed via ``rows`` so this
    module never imports its own subclass's module)."""
    rows = getattr(keys, "rows", None)
    if rows is not None:
        return int(rows)
    return _probe_rows(_as_probe_input(keys))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
class ExecutionBackend:
    """Strategy object for the probe/match hot loops of the pipeline executor.

    A backend counts what it does — morsels / partition tasks dispatched,
    and (process backend) shared-memory bytes and crash recovery — into
    ``record``: its own tally when used stand-alone, the open op's
    :class:`~repro.exec.statistics.OpStats` while an executor drives it.
    """

    name = "backend"

    def __init__(self) -> None:
        self.record = OpStats(index=-1, kind=self.name)
        #: Cooperative cancellation token installed by the engine for the
        #: current query (None: no deadline, no cancel).  Checked at morsel
        #: gather barriers and at chunk granularity inside long kernels.
        self.cancel: Optional[CancelToken] = None

    def ensure_ready(self) -> None:
        """Bring up backend resources (worker pools) before the first op.

        Raises :class:`~repro.errors.BackendUnavailable` when the backend
        cannot start — the engine's degradation ladder catches that and
        falls back to the next backend down.  The default backend needs no
        resources.
        """

    def _check_cancel(self) -> None:
        if self.cancel is not None:
            self.cancel.check()

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        """Evaluate ``probe_fn`` (probe input -> boolean mask) over ``keys``.

        ``keys`` is a key array or a tuple of aligned per-row arrays (a
        precomputed hash/pattern pass); morsel backends slice every component
        identically.  ``prepare`` (optional thunk) freezes lazily-built probe
        structures for concurrent read-only access; only fan-out backends
        invoke it.
        """
        raise NotImplementedError

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        """Match probe keys against a build-side index."""
        raise NotImplementedError

    @property
    def tasks_dispatched(self) -> int:
        """Morsels / partition tasks dispatched into the current ``record``."""
        return self.record.morsels

    def map_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run independent thunks and return their results in order."""
        self.record.morsels += len(tasks)
        return [task() for task in tasks]

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""


#: Rows per cancellation check of the whole-column preset when a cancel token
#: is installed.  Large enough that the cutting cost is noise, small enough
#: that a deadline is honored promptly on big columns.
SERIAL_CANCEL_CHUNK = 1 << 18


class MorselBackend(ExecutionBackend):
    """The in-process backend: cut the probe input, run, concatenate.

    Probe inputs longer than ``morsel_size`` rows are cut into morsels; each
    runs through the same vectorized kernel, and the parts are concatenated
    in order (match results with their morsel's row offset added), so every
    result is byte-equal to the whole-column call.  With ``num_threads > 1``
    the morsels go to a ``ThreadPoolExecutor`` — the NumPy probe kernels
    release the GIL on large arrays, so they genuinely overlap — after the
    lazily-built probe structures are frozen (``prepare`` /
    ``HashIndex.prepare_match``) so workers only read shared state.  The
    pool is created by :meth:`ensure_ready` / on first use and released by
    :meth:`close` (the engine does both per execution).

    ``morsel_size=None`` is the whole-column preset: one kernel call per
    probe and no morsel accounting (``record.morsels`` counts only
    :meth:`map_tasks` work).  It cuts — at :data:`SERIAL_CANCEL_CHUNK` rows —
    only while a cancel token is installed, so a deadline is checked inside
    long kernels.  Morsels are counted as they are dispatched (one by one on
    a single thread), so an op aborted mid-probe records how far it got.
    """

    def __init__(self, num_threads: int = 1, morsel_size: Optional[int] = None) -> None:
        super().__init__()
        if num_threads <= 0:
            raise ExecutionError("morsel backend needs at least one thread")
        if morsel_size is not None and morsel_size <= 0:
            raise ExecutionError("morsel size must be positive")
        self.num_threads = num_threads
        self.morsel_size = morsel_size
        self._pool: Optional[ThreadPoolExecutor] = None

    def _pool_instance(self) -> ThreadPoolExecutor:
        if self._pool is None:
            faults.fire("parallel.pool", "injected thread-pool start failure")
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-morsel"
            )
        return self._pool

    def ensure_ready(self) -> None:
        if self.num_threads == 1:
            return
        try:
            self._pool_instance()
        except Exception as error:
            raise BackendUnavailable(f"thread pool unavailable: {error}") from error

    def _run(self, tasks: List[Callable[[], object]], counted: bool = True) -> List[object]:
        if len(tasks) <= 1 or self.num_threads == 1:
            results = []
            for task in tasks:
                self._check_cancel()
                self.record.morsels += counted
                results.append(task())
            return results
        self.record.morsels += counted * len(tasks)
        pool = self._pool_instance()
        return gather_in_order([pool.submit(task) for task in tasks], self.cancel)

    def map_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        return self._run(list(tasks))

    def _morsels(self, total_rows: int) -> Optional[List[Tuple[int, int]]]:
        """The ``[lo, hi)`` cuts of a probe input; ``None``: run it whole."""
        size = self.morsel_size or SERIAL_CANCEL_CHUNK
        self._check_cancel()
        if total_rows <= size:
            if self.morsel_size is not None:
                self.record.morsels += num_chunks(total_rows, size)
            return None
        return [(lo, min(lo + size, total_rows)) for lo in range(0, total_rows, size)]

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        if self.morsel_size is None and self.cancel is None:
            return probe_fn(keys)
        keys = _as_probe_input(keys)
        morsels = self._morsels(_probe_rows(keys))
        if morsels is None:
            return probe_fn(keys)
        if prepare is not None:
            prepare()
        return np.concatenate(
            self._run(
                [
                    (lambda lo=lo, hi=hi: probe_fn(_slice_probe_input(keys, lo, hi)))
                    for lo, hi in morsels
                ],
                counted=self.morsel_size is not None,
            )
        )

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        if self.morsel_size is None and self.cancel is None:
            return index.match(probe_keys)
        probe_keys = np.asarray(probe_keys)
        morsels = self._morsels(int(probe_keys.shape[0]))
        if morsels is None:
            return index.match(probe_keys)
        index.prepare_match()
        results = self._run(
            [(lambda lo=lo, hi=hi: index.match(probe_keys[lo:hi])) for lo, hi in morsels],
            counted=self.morsel_size is not None,
        )
        return JoinMatches(
            probe_indices=np.concatenate(
                [m.probe_indices + lo for m, (lo, _) in zip(results, morsels)]
            ),
            build_indices=np.concatenate([m.build_indices for m in results]),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class _BloomPassProbe:
    """A picklable probe callable over a precomputed (hashes, patterns) pass.

    Replaces the equivalent lambda so the process backend can ship the
    probe spec to workers (lambdas do not pickle; the filter itself does).
    """

    __slots__ = ("bloom",)

    def __init__(self, bloom: BloomFilter) -> None:
        self.bloom = bloom

    def __call__(self, hp: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return self.bloom.probe(hashes=hp[0], patterns=hp[1])


def make_backend(
    name: str,
    chunk_size: Optional[int] = None,
    num_threads: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Instantiate a backend by name (``"serial"``, ``"chunked"``, ``"parallel"``,
    or ``"process"``).

    The first three are presets of :class:`MorselBackend`: one thread over
    the whole column, one thread over :data:`DEFAULT_CHUNK_SIZE`-row
    morsels, and ``num_threads`` (``None``: one per CPU, capped at
    :data:`MAX_DEFAULT_THREADS`) over :data:`DEFAULT_MORSEL_SIZE`-row
    morsels.  ``chunk_size`` overrides the morsel size of every preset but
    ``"serial"`` (the process one defaults to
    :data:`~repro.exec.process.DEFAULT_PROCESS_MORSEL_SIZE`); ``num_workers``
    sizes the process backend's pool.
    """
    if name == "serial":
        return MorselBackend()
    if name == "chunked":
        return MorselBackend(
            morsel_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        )
    if name == "parallel":
        return MorselBackend(
            num_threads=(
                min(MAX_DEFAULT_THREADS, os.cpu_count() or 1)
                if num_threads is None
                else num_threads
            ),
            morsel_size=DEFAULT_MORSEL_SIZE if chunk_size is None else chunk_size,
        )
    if name == "process":
        # Imported lazily: repro.exec.process subclasses ExecutionBackend,
        # so a top-level import here would be circular.
        from repro.exec.process import DEFAULT_PROCESS_MORSEL_SIZE, ProcessBackend

        return ProcessBackend(
            num_workers=num_workers,
            morsel_size=DEFAULT_PROCESS_MORSEL_SIZE if chunk_size is None else chunk_size,
        )
    raise ExecutionError(
        f"unknown pipeline backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


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


@dataclass
class _TransferStage:
    """Build-side state handed from a transfer ``BloomBuild`` to its ``BloomProbe``.

    The build side is either a Bloom filter (``bloom``) or — when the
    exact-bitmap downgrade fired — a prepared
    :class:`~repro.exec.kernels.HashIndex` whose bitmap membership table
    replaces the filter entirely (``exact_index``; no false positives).

    The probe side is ``target_column`` — the probe op gathers that column
    of ``op.target`` over the immutable base table by the relation's current
    row ids, materializing nothing in between — except for composite keys,
    which are densified jointly with the build side and so staged eagerly
    as ``target_keys``.
    """

    build_rows: int
    bloom: Optional[BloomFilter] = None
    exact_index: Optional[HashIndex] = None
    target_keys: Optional[np.ndarray] = None
    target_column: Optional[str] = None


@dataclass
class _JoinBloomStage:
    """State handed from a join-scoped ``BloomBuild`` to its ``BloomProbe``."""

    bloom: BloomFilter
    probe_keys: np.ndarray
    build_keys: np.ndarray
    probe_pass: Optional[Tuple[np.ndarray, np.ndarray]] = None


@dataclass
class _BuildStage:
    """Materialized build side handed from ``HashBuild`` to ``HashProbe``."""

    result: IntermediateResult
    index: Optional[HashIndex] = None
    keys: Optional[np.ndarray] = None
    partitioned: Optional[PartitionedHashIndex] = None


class PipelineExecutor:
    """Runs a compiled :class:`~repro.plan.physical.PhysicalPlan` op list.

    One executor instance serves one query execution (it owns the run's
    transfer stages, hash-index cache, and pending post-join
    predicates); the backend decides how the probe hot loops run.
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
        self._table_versions = dict(table_versions or {})
        self._fingerprints = dict(fingerprints or {})
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
        self._refs = {ref.alias: ref for ref in query.relations}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
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
        self._relations: Dict[str, BoundRelation] = {}
        self._filters = filters or {}
        self._slots: Dict[int, IntermediateResult] = {}
        self._materialized: Dict[Operand, IntermediateResult] = {}
        self._transfer_stages: Dict[int, _TransferStage] = {}
        self._join_bloom_stages: Dict[int, _JoinBloomStage] = {}
        self._build_stages: Dict[int, _BuildStage] = {}
        self._skipped_steps: set[int] = set()
        self._adaptive_skipped_steps: set[int] = set()
        self._join_bloom_eliminated: Dict[int, int] = {}
        self._join_probe_keys: Dict[int, np.ndarray] = {}
        self._index_cache: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, HashIndex]] = {}
        self._filtered: Optional[set[str]] = None
        self._pending_predicates: List[PostJoinPredicate] = list(self.query.post_join_predicates)
        self._aggregates: Optional[Dict[str, float]] = None
        # Artifact eligibility: a relation's artifacts are keyed by its
        # *base* state (scan + pushed-down filter, before any transfer
        # reduction), identified by the version Scan / FilterPush record.
        self._base_versions: Dict[str, int] = {}
        # Governor reservations charged once per run: touched artifacts and
        # published arena columns.
        self._artifact_reserved: set[str] = set()
        self._shm_charged: set[str] = set()
        self._adaptive: Optional[AdaptiveTransferController] = (
            AdaptiveTransferController(plan) if self.adaptive_transfer else None
        )
        self._stats = stats

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
                self._record = self.backend.record = self.hash_cache.record = record
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
                    handler(self, op, record)
                    if governor is not None:
                        # The cached hash/pattern arrays are real memory;
                        # keep their reservation current inside the op that
                        # grew the cache, so spills it forces land on this
                        # record.  Non-evictable: the cache dies with the run.
                        self._governed_reserve(
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
        return PipelineResult(relations=self._relations, aggregates=self._aggregates)

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

    # -- scan / filter --------------------------------------------------
    def _exec_scan(self, op: Scan, record: OpStats) -> None:
        if self.catalog is None:
            raise ExecutionError("pipeline plans with Scan ops require a catalog")
        table = self.catalog.table(op.table)
        self._relations[op.alias] = BoundRelation.from_table(op.alias, table)
        self._base_versions[op.alias] = self._relations[op.alias].version
        self._stats.base_rows[op.alias] = table.num_rows
        self._stats.filtered_rows[op.alias] = table.num_rows
        record.rows_in = record.rows_out = table.num_rows

    def _exec_filter_push(self, op: FilterPush, record: OpStats) -> None:
        relation = self._relations[op.alias]
        record.rows_in = record.rows_out = relation.num_rows
        evaluated = self._filters.get(op.alias)
        if evaluated is not None:
            mask = evaluated.mask
            evaluated.write_counters(record)
        else:
            ref = self._refs.get(op.alias)
            if ref is None or ref.filter is None:
                record.skipped = True
                return
            mask = np.asarray(ref.filter.evaluate(relation.table), dtype=bool)
        relation.keep(mask)
        self._base_versions[op.alias] = relation.version
        self._stats.filtered_rows[op.alias] = record.rows_out = relation.num_rows

    # -- transfer phase -------------------------------------------------
    def _exec_transfer_bloom_build(self, op: BloomBuild, record: OpStats) -> None:
        source = self._relations[op.source.alias]
        target = self._relations[op.target.alias]
        record.rows_in = record.rows_out = source.num_rows
        if self._skip_step(op, record, target):
            return

        bloom: Optional[BloomFilter] = None
        if len(op.attributes) == 1:
            attr_class = self.graph.attribute_classes[op.attributes[0]]
            source_column = attr_class.column_of(op.source.alias)
            target_column = attr_class.column_of(op.target.alias)
            exact_index = self._exact_bitmap_index(op, source, source_column, target)
            if exact_index is None:
                bloom = self._transfer_bloom(op, source, source_column)
            else:
                record.downgraded_exact = True
            # Late materialization: the probe op gathers over the immutable
            # base column by the target's row ids; nothing is staged for the
            # probe side here.
            stage = _TransferStage(
                bloom=bloom,
                exact_index=exact_index,
                build_rows=source.num_rows,
                target_column=target_column,
            )
        else:
            # Composite keys are densified jointly with the probe side, so
            # neither hashing pass nor gather can be cached or deferred.
            source_keys, target_keys = self._step_keys(op, source, target)
            bloom = BloomFilter(expected_keys=source.num_rows, fpr=self.transfer.fpr)
            bloom.insert(source_keys)
            stage = _TransferStage(
                bloom=bloom, build_rows=source.num_rows, target_keys=target_keys
            )
        self._transfer_stages[op.step_id] = stage

    def _transfer_bloom(self, op: BloomBuild, source: BoundRelation, column: str) -> BloomFilter:
        """Build (or fetch from the artifact cache) one transfer-phase filter."""
        artifact_key = self._artifact_key(
            op.source.alias, column, kind=KIND_BLOOM, param=f"fpr={self.transfer.fpr}"
        )
        if artifact_key is not None:
            cached = self.artifact_cache.get(artifact_key)
            if cached is not None:
                self._record.artifact_hits += 1
                self._charge_artifact(artifact_key, cached.size_bytes)
                return cached
            self._record.artifact_misses += 1
        bloom = BloomFilter(expected_keys=source.num_rows, fpr=self.transfer.fpr)
        hashes, patterns = self._bloom_pass_for_relation(source, column)
        bloom.insert(hashes=hashes, patterns=patterns)
        if artifact_key is not None:
            self.artifact_cache.put(artifact_key, bloom, bloom.size_bytes)
            self._charge_artifact(artifact_key, bloom.size_bytes)
        return bloom

    def _exact_bitmap_index(
        self,
        op: BloomBuild,
        source: BoundRelation,
        column: str,
        target: BoundRelation,
    ) -> Optional[HashIndex]:
        """Exact-bitmap downgrade: a prepared bitmap index, or None to keep Bloom.

        When the build side's observed key domain is dense enough that a
        boolean membership table costs no more than the probe work it saves
        (the same economics as :meth:`HashIndex._ensure_table`), the step is
        executed as an exact bitmap semi-join: probes become one in-range
        test plus one table gather, and — unlike a Bloom filter — zero false
        positives survive into the downstream passes and the join phase.
        """
        if source.num_rows == 0:
            return None
        probe_rows = target.num_rows
        index = self._relation_index(
            op.source.alias,
            op.attributes,
            source,
            lambda: source.key_values(column),
            expected_probe_rows=probe_rows,
        )
        if not index.bitmap_worthwhile(probe_rows):
            return None
        index.prepare(probe_rows)
        return index if index.has_bitmap else None

    def _exec_transfer_bloom_probe(self, op: BloomProbe, record: OpStats) -> None:
        target = self._relations[op.target.alias]
        rows_before = record.rows_in = record.rows_out = target.num_rows
        if self._adaptive is not None and self._adaptive.should_skip(record.index, op):
            # Cancelled after its build already ran (or alongside it);
            # discard any staged state and record the skip once per step.
            self._transfer_stages.pop(op.step_id, None)
            self._skip_transfer_step(op, target, adaptive=True)
        if op.step_id in self._skipped_steps:
            record.skipped = True
            record.adaptive_skipped = op.step_id in self._adaptive_skipped_steps
            return
        stage = self._transfer_stages.pop(op.step_id)
        bloom = stage.bloom
        if stage.exact_index is not None:
            # Exact-bitmap downgrade: one in-range test + table gather per
            # probe key, and no false positives downstream.
            index = stage.exact_index
            record.downgraded_exact = True
            record.selvec_rows += target.num_rows
            probe_keys = self._transfer_probe_input(target, stage.target_column)
            probe_rows = _probe_input_rows(probe_keys)
            mask = self.backend.probe_mask(
                probe_keys,
                index.contains,
                prepare=lambda: index.prepare(probe_rows),
            )
            filter_bytes = index.index_bytes()
        else:
            if stage.target_keys is not None:
                mask = self.backend.probe_mask(stage.target_keys, bloom.probe)
            else:
                record.selvec_rows += target.num_rows
                probe_pass = self._bloom_pass_for_relation(target, stage.target_column)
                mask = self.backend.probe_mask(probe_pass, _BloomPassProbe(bloom))
            filter_bytes = bloom.size_bytes
        target.keep(mask)
        self._record_transfer_step(
            op,
            rows_before=rows_before,
            rows_after=target.num_rows,
            filter_bytes=filter_bytes,
            build_rows=stage.build_rows,
            downgraded_exact=stage.exact_index is not None,
        )
        record.rows_out = target.num_rows
        if self._adaptive is not None:
            self._adaptive.observe(record.index, op, rows_before, target.num_rows)

    def _exec_semi_join_reduce(self, op: SemiJoinReduce, record: OpStats) -> None:
        source = self._relations[op.source.alias]
        target = self._relations[op.target.alias]
        rows_before = record.rows_in = record.rows_out = target.num_rows
        if self._skip_step(op, record, target):
            return
        if len(op.attributes) == 1:
            # Single-attribute keys are side-independent: resolve the target
            # side and check the index caches before gathering source keys —
            # a hit (forward + backward pass probing the same source, or a
            # prior query's frozen artifact) skips the source-side gather
            # and sort entirely.
            attr_class = self.graph.attribute_classes[op.attributes[0]]
            target_keys = self._transfer_probe_input(
                target, attr_class.column_of(op.target.alias)
            )
            source_column = attr_class.column_of(op.source.alias)
            index = self._relation_index(
                op.source.alias,
                op.attributes,
                source,
                lambda: source.key_values(source_column),
                expected_probe_rows=_probe_input_rows(target_keys),
            )
        else:
            source_keys, target_keys = self._step_keys(op, source, target)
            index = HashIndex(source_keys)
        probe_rows = _probe_input_rows(target_keys)
        mask = self.backend.probe_mask(
            target_keys,
            index.contains,
            prepare=lambda: index.prepare(probe_rows),
        )
        target.keep(mask)
        self._record_transfer_step(
            op,
            rows_before=rows_before,
            rows_after=target.num_rows,
            filter_bytes=int(index.keys.nbytes),
            build_rows=source.num_rows,
        )
        record.rows_out = target.num_rows
        if self._adaptive is not None:
            self._adaptive.observe(record.index, op, rows_before, target.num_rows)

    def _skip_step(self, op, record: OpStats, target: BoundRelation) -> bool:
        """Skip a step at its first op: §4.3 pruning, or the adaptive controller."""
        if self._should_prune(op.prunable, op.source.alias):
            self._skip_transfer_step(op, target)
        elif self._adaptive is not None and self._adaptive.should_skip(record.index, op):
            self._skip_transfer_step(op, target, adaptive=True)
            record.adaptive_skipped = True
        else:
            return False
        record.skipped = True
        return True

    def _should_prune(self, prunable: bool, source_alias: str) -> bool:
        if not (self.transfer.prune_trivial_semijoins and prunable):
            return False
        if self._filtered is None:
            self._filtered = self._initially_filtered()
        return source_alias not in self._filtered

    def _initially_filtered(self) -> set[str]:
        """Relations whose base predicate eliminated at least one row (§4.3)."""
        filtered: set[str] = set()
        for ref in self.query.relations:
            relation = self._relations.get(ref.alias)
            if relation is None:
                continue
            if ref.filter is not None and relation.num_rows < relation.table.num_rows:
                filtered.add(ref.alias)
        return filtered

    def _skip_transfer_step(self, op, target: BoundRelation, adaptive: bool = False) -> None:
        if op.step_id in self._skipped_steps:
            return
        self._skipped_steps.add(op.step_id)
        if adaptive:
            self._adaptive_skipped_steps.add(op.step_id)
        self._stats.transfer_steps.append(
            TransferStepStats(
                source=op.source.alias,
                target=op.target.alias,
                pass_=op.pass_,
                rows_before=target.num_rows,
                rows_after=target.num_rows,
                skipped=True,
                adaptive_skipped=adaptive,
            )
        )

    def _record_transfer_step(
        self,
        op,
        rows_before: int,
        rows_after: int,
        filter_bytes: int,
        build_rows: int,
        downgraded_exact: bool = False,
    ) -> None:
        stats = self._stats
        stats.transfer_steps.append(
            TransferStepStats(
                source=op.source.alias,
                target=op.target.alias,
                pass_=op.pass_,
                rows_before=rows_before,
                rows_after=rows_after,
                filter_bytes=filter_bytes,
                build_rows=build_rows,
                downgraded_exact=downgraded_exact,
            )
        )
        stats.bloom_bytes += filter_bytes
        stats.abstract_cost += bloom_probe_cost(rows_before, max(filter_bytes, 1))
        if rows_after < rows_before:
            if self._filtered is None:
                self._filtered = self._initially_filtered()
            self._filtered.add(op.target.alias)

    def _step_keys(self, op, source: BoundRelation, target: BoundRelation):
        """Resolve a transfer step's attribute classes to concrete key arrays."""
        source_columns = []
        target_columns = []
        for attribute in op.attributes:
            attr_class = self.graph.attribute_classes[attribute]
            source_columns.append(source.key_values(attr_class.column_of(op.source.alias)))
            target_columns.append(target.key_values(attr_class.column_of(op.target.alias)))
        if not source_columns:
            raise ExecutionError(f"transfer op {op.describe()} has no join attributes")
        return combine_key_columns_pair(source_columns, target_columns)

    # -- hash reuse / artifact caching ----------------------------------
    def _bloom_pass_for_relation(
        self, relation: BoundRelation, column: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The relation's surviving rows of a (cached) column hashing pass.

        Strategy, cheapest first: an unreduced relation computes/reuses the
        zero-gather full-column pass; a reduced one reuses the pass cached
        for exactly its current selection (a build and probe over the same
        relation state share one pass); failing that it gathers from an
        already-paid full-column pass; and only as a last resort hashes its
        gathered keys — caching the result for the next step over the same
        state.  Every branch is bit-identical to hashing the gathered keys
        directly.
        """
        cache = self.hash_cache
        table = relation.table
        token = self._encoding_token(table, column)
        if relation.num_rows == table.num_rows:
            return self._full_bloom_pass(relation, column, compute=True)
        cached = cache.selection_pass(table, column, relation.row_indices, encoding=token)
        if cached is not None:
            return cached
        # With the cross-query artifact cache on, a selection covering a
        # sizable fraction of the column promotes to the full-column pass:
        # one-time extra hashing that every later query replays for free.
        promote = (
            self.artifact_cache is not None
            and relation.alias in self._table_versions
            and relation.num_rows * 4 >= table.num_rows
        )
        full = self._full_bloom_pass(relation, column, compute=promote)
        if full is not None:
            selection = relation.row_indices
            result = (full[0][selection], full[1][selection])
            cache.store_selection_pass(table, column, selection, result, encoding=token)
            return result
        self._record.hash_misses += 1
        hashes = hash_keys(relation.key_values(column))
        result = (hashes, key_patterns(hashes))
        cache.store_selection_pass(table, column, relation.row_indices, result, encoding=token)
        return result

    def _full_bloom_pass(
        self, relation: BoundRelation, column: str, compute: bool
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """A full-column hashing pass, through both the query and artifact caches.

        The pass depends only on the immutable column data, so — unlike
        Bloom filters and hash indexes — its artifact is keyed purely by
        table version, never by a filter fingerprint.  With ``compute=False``
        only already-paid passes (this query's or a prior query's artifact)
        are returned.
        """
        cache = self.hash_cache
        table = relation.table
        token = self._encoding_token(table, column)
        existing = cache.peek_bloom_pass(table, column, encoding=token)
        if existing is not None:
            self._record.hash_hits += 1
            return existing
        artifact_key = None
        table_version = (
            self._snapshot_version(relation.alias, table.name)
            if self.artifact_cache is not None
            else None
        )
        if table_version is not None:
            artifact_key = ArtifactKey(
                table=table.name,
                table_version=table_version,
                column=column,
                fingerprint=FINGERPRINT_COLUMN,
                kind=KIND_BLOOM_PASS,
                encoding=token,
            )
            artifact = self.artifact_cache.get(artifact_key)
            if artifact is not None:
                self._record.artifact_hits += 1
                self._charge_artifact(
                    artifact_key, int(artifact[0].nbytes + artifact[1].nbytes)
                )
                cache.adopt_full_pass(table, column, artifact, encoding=token)
                return artifact
        if not compute:
            return None
        full = cache.bloom_pass(table, column, encoding=token)
        if artifact_key is not None:
            self._record.artifact_misses += 1
            nbytes = int(full[0].nbytes + full[1].nbytes)
            self.artifact_cache.put(artifact_key, full, nbytes)
            self._charge_artifact(artifact_key, nbytes)
        return full

    def _artifact_key(
        self, alias: str, column: str, kind: str, param: str = ""
    ) -> Optional[ArtifactKey]:
        """Cross-query cache key for an artifact over ``alias``'s base state.

        ``None`` (no caching) unless the artifact cache is configured, the
        engine supplied this alias's catalog version and filter fingerprint,
        and the relation is still in its base (scan + pushed-down filter)
        state — an artifact over a transfer-reduced relation would depend on
        this query's other predicates and must not be shared.
        """
        if self.artifact_cache is None:
            return None
        relation = self._relations.get(alias)
        fingerprint = self._fingerprints.get(alias)
        if relation is None or fingerprint is None:
            return None
        table_version = self._snapshot_version(alias, relation.table.name)
        if table_version is None:
            return None
        if relation.version != self._base_versions.get(alias, -1):
            return None
        return ArtifactKey(
            table=relation.table.name,
            table_version=table_version,
            column=column,
            fingerprint=fingerprint,
            kind=kind,
            param=param,
            encoding=self._encoding_token(relation.table, column),
        )

    def _encoding_token(self, table, column: str) -> str:
        """The column's encoding identity for cache keys.

        ``"raw"`` whenever block encodings are off — every key is then
        byte-identical to the pre-encoding ones, so artifacts persist
        across the flag being toggled off.  With encodings on, the token
        (e.g. ``"pack:u16:b0"``) keeps artifacts recorded over an encoded
        representation from aliasing raw ones at the same catalog version.
        """
        if not self.encodings or self.catalog is None:
            return "raw"
        store = getattr(self.catalog, "encodings", None)
        if store is None:
            return "raw"
        return store.token(table, column)

    def _snapshot_version(self, alias: str, table_name: str) -> Optional[int]:
        """The engine's table-version snapshot — only while it is still live.

        Guards the race between the snapshot (taken at ``Database.execute``
        start) and a concurrent table replace: once the live catalog version
        moves past the snapshot, this execution may be reading the *new*
        table's data, so caching anything under the snapshot key could
        poison the cache.  Artifact use is simply disabled for that alias.
        """
        version = self._table_versions.get(alias)
        if version is None:
            return None
        if self.catalog is not None:
            try:
                if self.catalog.version(table_name) != version:
                    return None
            except CatalogError:
                return None
        return version

    def _governed_reserve(self, key: str, size_bytes: int, evictable: bool = True) -> None:
        """Reserve through the governor with the spill-then-retry rung.

        A failed reservation (:class:`~repro.errors.MemoryExhausted`, genuine
        or injected) no longer aborts the op: every evictable reservation is
        synchronously spilled and the reservation retried once — recorded as
        the ``governor:spill-retry`` degradation.  Only a retry failure
        propagates.
        """
        if self.governor is None:
            return
        try:
            self.governor.reserve(key, size_bytes, evictable=evictable)
        except MemoryExhausted:
            self.governor.spill_evictables()
            self.governor.reserve(key, size_bytes, evictable=evictable, inject=False)
            self._record.degraded = self._record.degraded or "governor:spill-retry"
            self._stats.record_degradation("governor:spill-retry")
            if self.tracer is not None:
                self.tracer.event("governor:spill-retry", key=key)

    def _charge_artifact(self, key: ArtifactKey, size_bytes: int) -> None:
        """Account a touched artifact's residency against the run's governor."""
        if self.governor is None:
            return
        reservation = f"artifact:{key.kind}:{key.table}:{key.column}:{key.fingerprint[:12]}"
        if reservation not in self._artifact_reserved:
            self._governed_reserve(reservation, size_bytes, evictable=False)
            self._artifact_reserved.add(reservation)

    # -- shared-memory probe inputs -------------------------------------
    def _transfer_probe_input(self, relation: BoundRelation, column: str):
        """The probe input for a transfer semi-join over ``relation[column]``.

        Normally the eager gather ``relation.key_values(column)``.  When the
        backend ships probes to worker processes and the arena can publish
        the base column, returns a lazy (column ref, selection vector) pair
        instead — workers gather their own morsel from shared memory, so the
        parent never materializes the keys.  Either way the resulting mask
        is bit-identical.
        """
        if (
            self.arena is not None
            and getattr(self.backend, "ships_probes", False)
            and relation.num_rows > getattr(self.backend, "morsel_size", 0)
        ):
            try:
                ref = self.arena.column_ref(relation.table, column, encoded=self.encodings)
            except ExecutionError:
                # Publishing failed (e.g. an injected shm.share fault): fall
                # back to the eager gather — same mask, no shared memory.
                ref = None
            if ref is not None:
                self._charge_shm(ref)
                if hasattr(ref, "codes"):
                    # An encoded segment pair: record the (smaller) mapped
                    # footprint in the op trace's ``[enc ..B]`` marker.
                    self._record.encoded_bytes += int(ref.nbytes)
                from repro.exec.process import ShmGather

                return ShmGather(ref, relation.row_indices, relation.table.column(column).data)
        return relation.key_values(column)

    def _charge_shm(self, ref) -> None:
        """Account a published arena column, once per run, to the op that first used it."""
        if ref.name in self._shm_charged:
            return
        self._shm_charged.add(ref.name)
        self._record.shm_bytes += ref.nbytes
        self._governed_reserve(f"shm:{ref.name}", ref.nbytes, evictable=False)

    def _indexed_keys(
        self,
        alias: str,
        attributes: Tuple[str, ...],
        relation: BoundRelation,
        keys: np.ndarray,
    ) -> HashIndex:
        """Build (or reuse) the sorted index over one side's key array.

        Single-attribute keys are side-independent, so their sorted index can
        be cached per ``(alias, attributes)`` and reused until the relation
        is reduced again — the forward and backward transfer passes probing
        the same source then sort once.  Composite keys are densified jointly
        with the probe side and cannot be cached across steps.
        """
        if len(attributes) != 1:
            return HashIndex(keys)
        return self._relation_index(alias, attributes, relation, lambda: keys)

    def _relation_index(
        self,
        alias: str,
        attributes: Tuple[str, ...],
        relation: BoundRelation,
        gather_keys: Callable[[], np.ndarray],
        expected_probe_rows: int = 0,
    ) -> HashIndex:
        """The index over a relation's single-attribute keys, through both caches.

        Lookup order: the query-lifetime index cache (keyed by relation
        version — the forward/backward pass and join-phase reuse), then the
        cross-query artifact cache (keyed by table version + filter
        fingerprint; only consulted while the relation is in its base
        state).  A freshly built index headed for the artifact cache is
        frozen first so later queries — possibly on morsel worker threads —
        only ever read it.
        """
        cache_key = (alias, attributes)
        cached = self._index_cache.get(cache_key)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        # Artifacts are keyed by the physical column, not the query-local
        # attribute-class name, so different queries share them.
        column = self.graph.attribute_classes[attributes[0]].column_of(alias)
        artifact_key = self._artifact_key(alias, column, kind=KIND_HASH_INDEX)
        index: Optional[HashIndex] = None
        if artifact_key is not None:
            artifact = self.artifact_cache.get(artifact_key)
            if artifact is not None:
                self._record.artifact_hits += 1
                self._charge_artifact(artifact_key, artifact.index_bytes())
                index = artifact
            else:
                self._record.artifact_misses += 1
        if index is None:
            index = HashIndex(gather_keys())
            if artifact_key is not None:
                index.prepare(expected_probe_rows or index.num_keys)
                index.prepare_match()
                self.artifact_cache.put(artifact_key, index, index.index_bytes())
                self._charge_artifact(artifact_key, index.index_bytes())
        self._index_cache[cache_key] = (relation.version, index)
        return index

    # -- join phase -----------------------------------------------------
    def _materialize(self, operand: Operand) -> IntermediateResult:
        if not operand.is_relation:
            try:
                return self._slots[operand.slot]
            except KeyError:
                raise ExecutionError(f"pipeline slot ${operand.slot} was never produced") from None
        cached = self._materialized.get(operand)
        if cached is None:
            if operand.alias not in self._relations:
                raise ExecutionError(f"plan references unknown relation {operand.alias!r}")
            cached = IntermediateResult.from_relation(self._relations[operand.alias])
            self._materialized[operand] = cached
        return cached

    def _set_operand(self, operand: Operand, result: IntermediateResult) -> None:
        if operand.is_relation:
            self._materialized[operand] = result
        else:
            self._slots[operand.slot] = result

    def _exec_join_bloom_build(self, op: BloomBuild, record: OpStats) -> None:
        build = self._materialize(op.source)
        probe = self._materialize(op.target)
        record.rows_in = record.rows_out = build.num_rows
        if build.num_rows == 0:
            record.skipped = True
            return
        # The raw pair keys are needed either way — the upcoming hash join
        # consumes them — but the SIP filter's insert and probe replay the
        # cached column pass instead of re-hashing them.
        probe_keys, build_keys = self._pair_keys(op.attributes, probe, build)
        bloom = BloomFilter(expected_keys=build.num_rows, fpr=self.join.fpr)
        probe_pass = None
        if len(op.attributes) == 1:
            build_hashes, build_patterns = self._result_bloom_pass(
                op.attributes[0], build, build_keys
            )
            bloom.insert(hashes=build_hashes, patterns=build_patterns)
            probe_pass = self._result_bloom_pass(op.attributes[0], probe, probe_keys)
        else:
            bloom.insert(build_keys)
        self._join_bloom_stages[op.step_id] = _JoinBloomStage(
            bloom=bloom, probe_keys=probe_keys, build_keys=build_keys, probe_pass=probe_pass
        )

    def _exec_join_bloom_probe(self, op: BloomProbe, record: OpStats) -> None:
        probe = self._materialize(op.target)
        rows_before = record.rows_in = record.rows_out = probe.num_rows
        stage = self._join_bloom_stages.pop(op.step_id, None)
        if stage is None:
            record.skipped = True
            return
        if stage.probe_pass is not None:
            hits = self.backend.probe_mask(stage.probe_pass, _BloomPassProbe(stage.bloom))
        else:
            hits = self.backend.probe_mask(stage.probe_keys, stage.bloom.probe)
        keep = np.nonzero(hits)[0]
        reduced = probe.take(keep)
        self._set_operand(op.target, reduced)
        self._join_bloom_eliminated[op.step_id] = rows_before - int(hits.sum())
        # Hand the already-filtered pair keys to the upcoming hash join.
        self._build_stages[op.step_id] = _BuildStage(
            result=self._materialize(op.source),
            keys=stage.build_keys,
        )
        self._join_probe_keys[op.step_id] = stage.probe_keys[keep]
        self._stats.abstract_cost += bloom_probe_cost(int(hits.shape[0]), stage.bloom.size_bytes)
        record.rows_out = reduced.num_rows

    def _exec_hash_build(self, op: HashBuild, record: OpStats) -> None:
        build = self._materialize(op.input)
        record.rows_in = record.rows_out = build.num_rows
        stage = self._build_stages.get(op.build_id)
        if stage is None:
            stage = _BuildStage(result=build)
            self._build_stages[op.build_id] = stage
        else:
            stage.result = build
        if stage.keys is None and len(op.attributes) == 1:
            # Single-attribute keys are side-independent: gather and sort now
            # so the probe op only probes.  When the build side is the whole
            # (un-reduced-since) relation, the lookup goes through both index
            # caches — an index built by the transfer phase, or a prior
            # query's frozen artifact, skips the gather and sort entirely
            # (the gather thunk only runs on a full miss).
            if op.input.is_relation and build.num_rows == self._relations[op.input.alias].num_rows:
                stage.index = self._relation_index(
                    op.input.alias,
                    op.attributes,
                    self._relations[op.input.alias],
                    lambda: self._single_attribute_keys(op.attributes[0], build),
                )
            else:
                stage.keys = self._single_attribute_keys(op.attributes[0], build)
                stage.index = self._build_index(op, stage.keys)
        elif stage.keys is not None:
            stage.index = self._build_index(op, stage.keys)
        self._reserve_build(op.build_id, stage)

    # -- memory governance ----------------------------------------------
    def _stage_bytes(self, stage: _BuildStage) -> int:
        """Approximate bytes materialized by one build stage."""
        total = sum(int(arr.nbytes) for arr in stage.result.positions.values())
        if stage.keys is not None:
            total += int(stage.keys.nbytes)
        elif stage.index is not None:
            total += int(stage.index.keys.nbytes)
        return total

    def _reserve_build(self, build_id: int, stage: _BuildStage) -> None:
        if self.governor is not None:
            self._governed_reserve(f"build:{build_id}", self._stage_bytes(stage))

    def _touch_build(self, build_id: int) -> None:
        if self.governor is not None:
            self.governor.touch(f"build:{build_id}")

    def _release_build(self, build_id: int, stage: _BuildStage) -> None:
        if self.governor is None:
            return
        self.governor.release(f"build:{build_id}")
        if stage.partitioned is not None:
            for p in range(stage.partitioned.num_partitions):
                self.governor.release(f"partition:{build_id}:{p}")

    def _build_index(self, op: HashBuild, keys: np.ndarray) -> HashIndex:
        if op.input.is_relation and len(op.attributes) == 1:
            relation = self._relations[op.input.alias]
            # Publish the index for reuse when the build side is the whole
            # (un-reduced-since) relation.
            materialized = self._materialized.get(op.input)
            if materialized is None or materialized.num_rows == relation.num_rows:
                return self._indexed_keys(op.input.alias, op.attributes, relation, keys)
        return HashIndex(keys)

    def _single_attribute_keys(self, attribute: str, result: IntermediateResult) -> np.ndarray:
        attr_class = self.graph.attribute_classes[attribute]
        alias = _representative_alias(attr_class, result.aliases)
        values = result.column_values(self._relations, alias, attr_class.column_of(alias))
        return np.asarray(values).astype(np.int64, copy=False)

    def _result_bloom_pass(
        self, attribute: str, result: IntermediateResult, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """An intermediate result's rows of a (cached) column hashing pass.

        When a full-column pass is available — some earlier step already
        paid for it, or the backing relation is unreduced and the result
        covers a sizable fraction of it (so the one-time full pass is near
        the work a direct hash would do anyway, and later steps reuse it) —
        the pass is gathered by the result's composed row ids instead of
        re-hashing.  Otherwise the already-gathered ``keys`` are hashed
        directly.
        """
        attr_class = self.graph.attribute_classes[attribute]
        alias = _representative_alias(attr_class, result.aliases)
        relation = self._relations[alias]
        cache = self.hash_cache
        column = attr_class.column_of(alias)
        unreduced = relation.num_rows == relation.table.num_rows
        compute = unreduced and result.num_rows * 4 >= relation.table.num_rows
        full = self._full_bloom_pass(relation, column, compute=compute)
        if full is not None:
            positions = result.positions[alias]
            row_ids = positions if unreduced else relation.row_indices[positions]
            return full[0][row_ids], full[1][row_ids]
        self._record.hash_misses += 1
        hashes = hash_keys(keys)
        return hashes, key_patterns(hashes)

    def _pair_keys(
        self,
        attributes: Tuple[str, ...],
        probe: IntermediateResult,
        build: IntermediateResult,
    ) -> Tuple[np.ndarray, np.ndarray]:
        probe_columns = []
        build_columns = []
        for attribute in attributes:
            attr_class = self.graph.attribute_classes[attribute]
            probe_alias = _representative_alias(attr_class, probe.aliases)
            build_alias = _representative_alias(attr_class, build.aliases)
            probe_columns.append(
                probe.column_values(self._relations, probe_alias, attr_class.column_of(probe_alias))
            )
            build_columns.append(
                build.column_values(self._relations, build_alias, attr_class.column_of(build_alias))
            )
        return combine_key_columns_pair(probe_columns, build_columns)

    def _exec_hash_probe(self, op: HashProbe, record: OpStats) -> None:
        stats = self._stats
        stage = self._build_stages.pop(op.build_id)
        build = stage.result
        probe = self._materialize(op.probe)
        record.rows_in = probe.num_rows
        self._touch_build(op.build_id)

        if not op.attributes:
            joined = self._cartesian_product(probe, build)
            self._slots[op.output_slot] = self._apply_ready_predicates(joined)
            self._release_build(op.build_id, stage)
            record.rows_out = joined.num_rows
            return

        staged_probe_keys = self._join_probe_keys.pop(op.build_id, None)
        if staged_probe_keys is not None:
            probe_keys = staged_probe_keys
            index = stage.index or HashIndex(stage.keys)
        elif len(op.attributes) == 1:
            probe_keys = self._single_attribute_keys(op.attributes[0], probe)
            index = stage.index if stage.index is not None else HashIndex(
                stage.keys
                if stage.keys is not None
                else self._single_attribute_keys(op.attributes[0], build)
            )
        else:
            probe_keys, build_keys = self._pair_keys(op.attributes, probe, build)
            index = HashIndex(build_keys)

        matches = self.backend.match(probe_keys, index)
        joined = probe.merge(build, matches.probe_indices, matches.build_indices)

        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(probe.aliases)),
                right_aliases=tuple(sorted(build.aliases)),
                probe_rows=probe.num_rows,
                build_rows=build.num_rows,
                output_rows=joined.num_rows,
                bloom_prefiltered_rows=self._join_bloom_eliminated.pop(op.build_id, 0),
            )
        )
        stats.abstract_cost += (
            hash_probe_cost(probe.num_rows, build.num_rows)
            + float(build.num_rows)
            + float(joined.num_rows)
        )
        self._slots[op.output_slot] = self._apply_ready_predicates(joined)
        self._release_build(op.build_id, stage)
        record.rows_out = joined.num_rows

    # -- radix-partitioned join phase -----------------------------------
    def _exec_partition(self, op: Partition, record: OpStats) -> None:
        build = self._materialize(op.input)
        record.rows_in = record.rows_out = build.num_rows
        stage = self._build_stages.get(op.build_id)
        if stage is None:
            stage = _BuildStage(result=build)
            self._build_stages[op.build_id] = stage
        else:
            # A join-scoped Bloom pair already staged the (filtered) pair keys.
            stage.result = build
        if stage.keys is None:
            stage.keys = self._single_attribute_keys(op.attributes[0], build)
        stage.partitioned = PartitionedHashIndex(stage.keys, bits=op.bits)
        # The build side's materialized rows are reserved like the monolithic
        # path's; the partitioned key/order copies are reserved per partition
        # (the granularity the governor spills at).
        self._reserve_build(op.build_id, stage)
        if self.governor is not None:
            partitioned = stage.partitioned
            for p in range(partitioned.num_partitions):
                nbytes = partitioned.partition_bytes(p)
                if nbytes:
                    self._governed_reserve(f"partition:{op.build_id}:{p}", nbytes)

    def _exec_partitioned_hash_build(self, op: PartitionedHashBuild, record: OpStats) -> None:
        stage = self._build_stages[op.build_id]
        assert stage.partitioned is not None, "Partition op must precede PartitionedHashBuild"
        # Per-partition index builds are independent partial builds; map_tasks
        # is the pipeline breaker that merges them (parallel backends fan out).
        stage.partitioned.build(run_tasks=self.backend.map_tasks)
        record.rows_in = record.rows_out = stage.partitioned.num_keys

    def _exec_partitioned_hash_probe(self, op: PartitionedHashProbe, record: OpStats) -> None:
        stats = self._stats
        stage = self._build_stages.pop(op.build_id)
        assert stage.partitioned is not None, "Partition op must precede PartitionedHashProbe"
        build = stage.result
        probe = self._materialize(op.probe)
        record.rows_in = probe.num_rows
        self._touch_build(op.build_id)

        staged_probe_keys = self._join_probe_keys.pop(op.build_id, None)
        if staged_probe_keys is not None:
            probe_keys = staged_probe_keys
        else:
            probe_keys = self._single_attribute_keys(op.attributes[0], probe)
        # Only the partitions the probe actually visits are touched, so a
        # spilled partition is charged a reload iff the join reads it.
        on_partition = None
        if self.governor is not None:
            governor = self.governor
            on_partition = lambda p: governor.touch(f"partition:{op.build_id}:{p}")  # noqa: E731
        matches = stage.partitioned.match(
            probe_keys, run_tasks=self.backend.map_tasks, on_partition=on_partition
        )
        joined = probe.merge(build, matches.probe_indices, matches.build_indices)

        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(probe.aliases)),
                right_aliases=tuple(sorted(build.aliases)),
                probe_rows=probe.num_rows,
                build_rows=build.num_rows,
                output_rows=joined.num_rows,
                bloom_prefiltered_rows=self._join_bloom_eliminated.pop(op.build_id, 0),
            )
        )
        # Partitioned probes search cache-resident segments: charge the hash
        # probe cost at partition granularity rather than the full build size.
        per_partition = max(build.num_rows >> stage.partitioned.bits, 1)
        stats.abstract_cost += (
            hash_probe_cost(probe.num_rows, per_partition)
            + float(build.num_rows)
            + float(joined.num_rows)
        )
        self._slots[op.output_slot] = self._apply_ready_predicates(joined)
        self._release_build(op.build_id, stage)
        record.rows_out = joined.num_rows

    def _cartesian_product(
        self, left: IntermediateResult, right: IntermediateResult
    ) -> IntermediateResult:
        stats = self._stats
        if not self.join.allow_cartesian_products:
            raise ExecutionError(
                "join plan contains a Cartesian product between "
                f"{sorted(left.aliases)} and {sorted(right.aliases)}"
            )
        left_idx = np.repeat(np.arange(left.num_rows, dtype=np.int64), right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows, dtype=np.int64), left.num_rows)
        joined = left.merge(right, left_idx, right_idx)
        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(left.aliases)),
                right_aliases=tuple(sorted(right.aliases)),
                probe_rows=left.num_rows,
                build_rows=right.num_rows,
                output_rows=joined.num_rows,
            )
        )
        stats.abstract_cost += float(joined.num_rows)
        return joined

    # -- aggregation ----------------------------------------------------
    def _exec_aggregate(self, op: Aggregate, record: OpStats) -> None:
        final = self._materialize(op.input)
        record.rows_in = final.num_rows
        final = self._apply_ready_predicates(final, force_all=True)
        self._stats.output_rows = record.rows_out = final.num_rows
        self._aggregates = compute_aggregates(self.query, self._relations, final)

    # -- post-join predicates -------------------------------------------
    def _apply_ready_predicates(
        self, result: IntermediateResult, force_all: bool = False
    ) -> IntermediateResult:
        if not self._pending_predicates:
            return result
        still_pending: List[PostJoinPredicate] = []
        for predicate in self._pending_predicates:
            ready = predicate.required_aliases() <= result.aliases
            if ready:
                result = self._apply_predicate(result, predicate)
            elif force_all:
                raise ExecutionError(
                    "post-join predicate references relations missing from the final result: "
                    f"{sorted(predicate.required_aliases() - result.aliases)}"
                )
            else:
                still_pending.append(predicate)
        self._pending_predicates = still_pending
        return result

    def _apply_predicate(
        self, result: IntermediateResult, predicate: PostJoinPredicate
    ) -> IntermediateResult:
        if result.num_rows == 0:
            return result
        overall = np.zeros(result.num_rows, dtype=bool)
        for conjunct in predicate.disjuncts:
            conjunct_mask = np.ones(result.num_rows, dtype=bool)
            for term in conjunct:
                conjunct_mask &= result.evaluate_qualified_comparison(self._relations, term)
            overall |= conjunct_mask
        return result.take(np.nonzero(overall)[0])


#: The dispatch table: ``(op type, scope) -> (phase its time is accounted
#: under, handler)``.  Only Bloom ops carry a scope; a join-scoped pair is
#: the Bloom Join baseline's per-join prefilter.
_OPS = {
    (Scan, None): ("scan_filter", PipelineExecutor._exec_scan),
    (FilterPush, None): ("scan_filter", PipelineExecutor._exec_filter_push),
    (BloomBuild, SCOPE_TRANSFER): ("transfer", PipelineExecutor._exec_transfer_bloom_build),
    (BloomProbe, SCOPE_TRANSFER): ("transfer", PipelineExecutor._exec_transfer_bloom_probe),
    (SemiJoinReduce, None): ("transfer", PipelineExecutor._exec_semi_join_reduce),
    (BloomBuild, SCOPE_JOIN): ("join", PipelineExecutor._exec_join_bloom_build),
    (BloomProbe, SCOPE_JOIN): ("join", PipelineExecutor._exec_join_bloom_probe),
    (HashBuild, None): ("join", PipelineExecutor._exec_hash_build),
    (HashProbe, None): ("join", PipelineExecutor._exec_hash_probe),
    (Partition, None): ("join", PipelineExecutor._exec_partition),
    (PartitionedHashBuild, None): ("join", PipelineExecutor._exec_partitioned_hash_build),
    (PartitionedHashProbe, None): ("join", PipelineExecutor._exec_partitioned_hash_probe),
    (Aggregate, None): ("aggregate", PipelineExecutor._exec_aggregate),
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


def _representative_alias(attr_class, aliases: frozenset) -> str:
    for alias in sorted(aliases):
        if attr_class.touches(alias):
            return alias
    raise ExecutionError(
        f"attribute class {attr_class.name!r} has no member among aliases {sorted(aliases)}"
    )
