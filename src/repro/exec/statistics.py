"""Execution statistics: the measurement substrate of every experiment.

The paper's evaluation reports two kinds of quantities:

* wall-clock execution time (Figures 6-10, 13-15, Tables 1-3), and
* intermediate-result sizes (Figure 11's case study, the theory in §3).

At reproduction scale, wall-clock alone is noisy, so every executor in this
library records both: timers per phase *and* exact tuple counts for every
semi-join step and every binary join.  The robustness metrics
(:mod:`repro.core.robustness`) can therefore be computed over wall time, over
a deterministic cost model, or over raw intermediate tuple counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class TransferStepStats:
    """Statistics for one semi-join (Bloom) step of the transfer phase."""

    source: str
    target: str
    pass_: str
    rows_before: int
    rows_after: int
    filter_bytes: int = 0
    build_rows: int = 0
    skipped: bool = False
    #: True when the skip was an adaptive-controller decision (as opposed to
    #: the static §4.3 PK-FK triviality pruning).
    adaptive_skipped: bool = False
    #: True when the step ran as an exact bitmap semi-join instead of a
    #: Bloom filter (the adaptive exact-bitmap downgrade).
    downgraded_exact: bool = False

    @property
    def rows_eliminated(self) -> int:
        """Tuples removed from the target by this step."""
        return self.rows_before - self.rows_after

    @property
    def selectivity(self) -> float:
        """Fraction of target tuples surviving the step."""
        if self.rows_before == 0:
            return 1.0
        return self.rows_after / self.rows_before


@dataclass
class OpStats:
    """Statistics for one op of a compiled :class:`~repro.plan.physical.PhysicalPlan`.

    Every execution mode compiles to the same typed op set, so this is the
    *uniform trace*: the bench harness can compare a baseline hash-join run
    against an RPT run op by op (kind, cardinalities, wall time) without
    mode-specific bookkeeping.
    """

    index: int
    kind: str
    detail: str = ""
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    skipped: bool = False
    #: Morsels / partition tasks the backend dispatched for this op (0 when
    #: the op ran as one whole-column kernel call).
    morsels: int = 0
    #: Bytes the memory governor spilled while this op was reserving budget.
    spilled_bytes: int = 0
    #: Hash-cache column passes this op reused / had to compute.
    hash_hits: int = 0
    hash_misses: int = 0
    #: Rows this op carried through row-id selection vectors instead of a
    #: materialized filtered key array.
    selvec_rows: int = 0
    #: Cross-query artifact-cache hits (prebuilt Bloom filter / hash index
    #: reused) and misses this op observed.
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: True when the adaptive transfer controller cancelled this op (yield
    #: below threshold, dead build, or wholesale backward-pass skip).
    adaptive_skipped: bool = False
    #: True when this step ran as an exact bitmap semi-join instead of a
    #: Bloom build/probe (the adaptive exact-bitmap downgrade).
    downgraded_exact: bool = False
    #: True when this op's predicate ran as a single fused kernel instead of
    #: one materialized mask per expression node.
    fused_expr: bool = False
    #: Rows the fused kernel never evaluated later conjuncts on (the
    #: progressive selection vectors' saving over naive per-node masks).
    fused_rows_short_circuited: int = 0
    #: Bytes this op placed in (or resolved from) shared-memory segments for
    #: process-parallel probing.
    shm_bytes: int = 0
    #: Zone-map block skipping for this op's predicate: blocks proven empty
    #: of matches (skipped wholesale) out of the blocks covering the column.
    blocks_skipped: int = 0
    blocks_total: int = 0
    #: Encoded bytes behind this op's column accesses (dictionary / RLE /
    #: bit-packed buffers instead of flat ``int64`` arrays).
    encoded_bytes: int = 0
    #: Non-empty when this op took a degradation rung (e.g.
    #: ``"governor:spill-retry"`` after a failed reservation, or
    #: ``"process:inline-fallback"`` after exhausting task retries).
    degraded: str = ""
    #: Worker-process deaths observed while this op's morsels ran, and the
    #: pool respawn + retry rounds they triggered.
    worker_crashes: int = 0
    tasks_retried: int = 0
    #: Morsels executed inline in the parent after ``max_task_retries``.
    inline_morsels: int = 0

    @property
    def rows_eliminated(self) -> int:
        """Rows removed by this op (0 for build/scan ops)."""
        return max(self.rows_in - self.rows_out, 0)


@dataclass
class JoinStepStats:
    """Statistics for one binary join of the join phase."""

    left_aliases: tuple[str, ...]
    right_aliases: tuple[str, ...]
    probe_rows: int
    build_rows: int
    output_rows: int
    bloom_prefiltered_rows: int = 0

    @property
    def amplification(self) -> float:
        """Output rows per probe row (> 1 indicates a fan-out join)."""
        if self.probe_rows == 0:
            return 0.0
        return self.output_rows / self.probe_rows


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each execution phase."""

    scan_filter: float = 0.0
    transfer: float = 0.0
    join: float = 0.0
    aggregate: float = 0.0
    simulated_io: float = 0.0

    @property
    def total(self) -> float:
        """Total wall-clock + simulated I/O time."""
        return self.scan_filter + self.transfer + self.join + self.aggregate + self.simulated_io


@dataclass
class ExecutionStats:
    """Complete measurement record for one query execution."""

    query_name: str = ""
    mode: str = ""
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    transfer_steps: List[TransferStepStats] = field(default_factory=list)
    join_steps: List[JoinStepStats] = field(default_factory=list)
    op_stats: List[OpStats] = field(default_factory=list)
    base_rows: Dict[str, int] = field(default_factory=dict)
    filtered_rows: Dict[str, int] = field(default_factory=dict)
    reduced_rows: Dict[str, int] = field(default_factory=dict)
    output_rows: int = 0
    bloom_bytes: int = 0
    abstract_cost: float = 0.0
    #: High-water mark of memory reserved with the MemoryGovernor (bytes).
    peak_memory_bytes: int = 0
    #: Governor-ordered spills during execution (count / bytes written).
    spill_events: int = 0
    spilled_bytes: int = 0
    #: Bytes re-read because a probed reservation had been spilled.
    reloaded_bytes: int = 0
    #: Query-lifetime hash-cache column passes reused / computed.
    hash_reuse_hits: int = 0
    hash_reuse_misses: int = 0
    #: Rows carried through selection vectors instead of materialized keys.
    selection_vector_rows: int = 0
    #: Cross-query artifact-cache hits / misses during this execution.
    artifact_cache_hits: int = 0
    artifact_cache_misses: int = 0
    #: Transfer steps the adaptive controller cancelled this execution.
    adaptive_steps_skipped: int = 0
    #: Transfer steps downgraded to exact bitmap semi-joins.
    adaptive_exact_downgrades: int = 0
    #: Base-filter predicates evaluated by a fused conjunction kernel, and
    #: the rows those kernels short-circuited past later conjuncts.
    fused_exprs: int = 0
    fused_rows_short_circuited: int = 0
    #: Bytes placed in (or resolved from) shared-memory segments by the
    #: process backend during this execution.
    shm_bytes_mapped: int = 0
    #: Zone-map blocks skipped / covered across every base filter this
    #: execution evaluated with encodings enabled.
    zone_blocks_skipped: int = 0
    zone_blocks_total: int = 0
    #: Encoded bytes behind the columns execution touched through the
    #: encoding layer (what the MemoryGovernor and shm arena were charged
    #: instead of the flat ``int64`` bytes).
    encoded_bytes_touched: int = 0
    #: Degradation-ladder rungs this execution took, in first-occurrence
    #: order — e.g. ``"backend:process->parallel"`` (pool unavailable),
    #: ``"column.decode:title.production_year->raw"`` (decode fault),
    #: ``"governor:spill-retry"`` (reservation retried after spilling),
    #: ``"process:inline-fallback"`` (morsels finished in the parent).
    #: Each distinct rung appears once; per-op repeats bump
    #: ``degradation_counts`` instead (see :meth:`record_degradation`).
    degradations: List[str] = field(default_factory=list)
    #: Occurrences per degradation rung (a rung that fired on five ops
    #: counts 5 here but appears once in ``degradations``).
    degradation_counts: Dict[str, int] = field(default_factory=dict)
    #: Fault-recovery counters of the process backend: worker deaths seen,
    #: morsel retry rounds after a respawn, morsels completed inline, and
    #: spill writes that failed and left their victim resident.
    worker_crashes: int = 0
    tasks_retried: int = 0
    inline_fallback_morsels: int = 0
    spill_failures: int = 0

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_intermediate_rows(self) -> int:
        """Sum of output sizes of every binary join except the final one.

        This is the quantity the Yannakakis bound constrains
        (Σ intermediates ≤ n · |OUT| on a fully reduced instance) and what
        Figure 11 tabulates for JOB 2a.
        """
        if not self.join_steps:
            return 0
        return sum(step.output_rows for step in self.join_steps[:-1])

    @property
    def total_join_output_rows(self) -> int:
        """Sum of output sizes of every binary join (including the final one)."""
        return sum(step.output_rows for step in self.join_steps)

    @property
    def total_tuples_processed(self) -> int:
        """Rows flowing through joins: probe + build + output of every join.

        A deterministic, order-sensitive proxy for execution work used as
        the robustness cost metric alongside wall time.
        """
        return sum(s.probe_rows + s.build_rows + s.output_rows for s in self.join_steps)

    @property
    def total_transfer_rows_eliminated(self) -> int:
        """Rows removed across all transfer-phase steps."""
        return sum(s.rows_eliminated for s in self.transfer_steps)

    @property
    def elapsed_seconds(self) -> float:
        """Total measured wall time (plus simulated I/O, if any)."""
        return self.timings.total

    def op_seconds_by_kind(self) -> Dict[str, float]:
        """Wall seconds per physical-op kind (the per-op timing breakdown)."""
        totals: Dict[str, float] = {}
        for op in self.op_stats:
            totals[op.kind] = totals.get(op.kind, 0.0) + op.seconds
        return totals

    def op_trace(self) -> str:
        """Uniform per-op execution trace shared by every execution mode."""
        if not self.op_stats:
            return "(no physical-plan trace recorded)"
        lines = [
            f"{'#':>3} {'op':<22} {'rows in':>10} {'rows out':>10} {'seconds':>10} "
            f"{'morsels':>8}  detail"
        ]
        for op in self.op_stats:
            if op.adaptive_skipped:
                marker = " [adaptive skip]"
            elif op.skipped:
                marker = " [skipped]"
            else:
                marker = ""
            if op.spilled_bytes:
                marker += f" [spilled {op.spilled_bytes}B]"
            if op.hash_hits or op.hash_misses:
                marker += f" [hash {op.hash_hits}h/{op.hash_misses}m]"
            if op.selvec_rows:
                marker += f" [selvec {op.selvec_rows}r]"
            if op.artifact_hits:
                marker += " [artifact hit]"
            if op.downgraded_exact:
                marker += " [exact bitmap]"
            if op.fused_expr:
                marker += f" [fused -{op.fused_rows_short_circuited}r]"
            if op.shm_bytes:
                marker += f" [shm {op.shm_bytes}B]"
            if op.blocks_total:
                marker += f" [zm skip {op.blocks_skipped}/{op.blocks_total}]"
            if op.encoded_bytes:
                marker += f" [enc {op.encoded_bytes}B]"
            if op.worker_crashes:
                marker += f" [crashed {op.worker_crashes}w/{op.tasks_retried}r]"
            if op.inline_morsels:
                marker += f" [inline {op.inline_morsels}m]"
            if op.degraded:
                marker += f" [degraded {op.degraded}]"
            lines.append(
                f"{op.index:>3} {op.kind:<22} {op.rows_in:>10} {op.rows_out:>10} "
                f"{op.seconds:>10.6f} {op.morsels:>8}  {op.detail}{marker}"
            )
        return "\n".join(lines)

    def cache_summary(self) -> str:
        """One-line summary of the hash / selection-vector / artifact caching.

        Empty when the execution recorded no cache activity (caches off or
        nothing cacheable), so callers can append it conditionally.
        """
        parts = []
        if self.hash_reuse_hits or self.hash_reuse_misses:
            parts.append(f"hash passes {self.hash_reuse_hits}h/{self.hash_reuse_misses}m")
        if self.selection_vector_rows:
            parts.append(f"selection-vector rows {self.selection_vector_rows}")
        if self.artifact_cache_hits or self.artifact_cache_misses:
            parts.append(
                f"artifact cache {self.artifact_cache_hits}h/{self.artifact_cache_misses}m"
            )
        return "cache: " + ", ".join(parts) if parts else ""

    def adaptive_summary(self) -> str:
        """One-line summary of the adaptive transfer controller's decisions.

        Empty when adaptive execution was off or made no decision, so
        callers can append it conditionally.
        """
        parts = []
        if self.adaptive_steps_skipped:
            parts.append(f"skipped {self.adaptive_steps_skipped} step(s)")
        if self.adaptive_exact_downgrades:
            parts.append(f"{self.adaptive_exact_downgrades} exact-bitmap downgrade(s)")
        return "adaptive: " + ", ".join(parts) if parts else ""

    def runtime_summary(self) -> str:
        """One-line summary of fused-kernel and shared-memory activity.

        Empty when the execution used neither fused filters nor the process
        backend, so callers can append it conditionally.
        """
        parts = []
        if self.fused_exprs:
            parts.append(
                f"fused {self.fused_exprs} filter(s) "
                f"(-{self.fused_rows_short_circuited} rows short-circuited)"
            )
        if self.shm_bytes_mapped:
            parts.append(f"shm mapped {self.shm_bytes_mapped}B")
        if self.zone_blocks_total:
            parts.append(
                f"zone maps skipped {self.zone_blocks_skipped}/{self.zone_blocks_total} blocks"
            )
        if self.encoded_bytes_touched:
            parts.append(f"encoded bytes {self.encoded_bytes_touched}B")
        return "runtime: " + ", ".join(parts) if parts else ""

    def record_degradation(self, rung: str) -> None:
        """Record a degradation rung exactly once in the merged list.

        Degradation events fire per op (inline-fallback morsels) or per
        reservation (``governor:spill-retry``): naive appending repeated
        the same rung once per event, double-counting it in merged
        summaries.  Every event bumps ``degradation_counts``; the
        ``degradations`` list keeps one entry per distinct rung in
        first-occurrence order.
        """
        self.degradation_counts[rung] = self.degradation_counts.get(rung, 0) + 1
        if rung not in self.degradations:
            self.degradations.append(rung)

    def degradation_summary(self) -> str:
        """One-line summary of fault recovery and degradation-ladder rungs.

        Empty on a fault-free, undegraded run, so callers can append it
        conditionally.
        """
        parts = []
        if self.degradations:
            rendered = []
            for rung in self.degradations:
                count = self.degradation_counts.get(rung, 1)
                rendered.append(f"{rung} x{count}" if count > 1 else rung)
            parts.append("; ".join(rendered))
        if self.worker_crashes:
            parts.append(
                f"{self.worker_crashes} worker crash(es), "
                f"{self.tasks_retried} retry round(s)"
            )
        if self.inline_fallback_morsels:
            parts.append(f"{self.inline_fallback_morsels} morsel(s) finished inline")
        if self.spill_failures:
            parts.append(f"{self.spill_failures} failed spill write(s)")
        return "degraded: " + ", ".join(parts) if parts else ""

    def execution_summary(self) -> str:
        """Combined one-line cache + adaptive + runtime + degradation summary.

        This is what :func:`repro.bench.reporting.format_op_traces` appends
        under each mode's per-op trace; empty when nothing was recorded.
        """
        parts = [
            part
            for part in (
                self.cache_summary(),
                self.adaptive_summary(),
                self.runtime_summary(),
                self.degradation_summary(),
            )
            if part
        ]
        return " | ".join(parts)

    def cost(self, metric: str = "tuples") -> float:
        """Return the execution cost under the requested metric.

        ``"tuples"``  -> total tuples processed by joins + transfer work,
        ``"intermediate"`` -> total intermediate join output rows,
        ``"time"``    -> wall-clock (+ simulated I/O) seconds,
        ``"abstract"`` -> the abstract cost-model units accumulated.
        """
        if metric == "tuples":
            transfer_work = sum(s.rows_before for s in self.transfer_steps if not s.skipped)
            return float(self.total_tuples_processed + transfer_work)
        if metric == "intermediate":
            return float(self.total_intermediate_rows)
        if metric == "time":
            return self.elapsed_seconds
        if metric == "abstract":
            return self.abstract_cost
        raise ValueError(f"unknown cost metric {metric!r}")

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @contextmanager
    def time_phase(self, phase: str) -> Iterator[None]:
        """Context manager adding elapsed wall time to a phase counter."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            setattr(self.timings, phase, getattr(self.timings, phase) + elapsed)

    def summary(self) -> str:
        """Multi-line human readable summary used by examples and reports."""
        lines = [
            f"query={self.query_name} mode={self.mode}",
            f"  output rows          : {self.output_rows}",
            f"  intermediate rows    : {self.total_intermediate_rows}",
            f"  tuples processed     : {self.total_tuples_processed}",
            f"  elapsed seconds      : {self.elapsed_seconds:.6f}",
            f"  transfer steps       : {len(self.transfer_steps)}"
            f" (eliminated {self.total_transfer_rows_eliminated} rows)",
            f"  joins                : {len(self.join_steps)}",
        ]
        return "\n".join(lines)


def merge_reduced_rows(stats: ExecutionStats) -> Dict[str, int]:
    """Final per-relation cardinalities after the transfer phase.

    Derived from the last transfer step touching each relation, falling back
    to the filtered base cardinality when a relation was never reduced.
    """
    result = dict(stats.filtered_rows)
    for step in stats.transfer_steps:
        if not step.skipped:
            result[step.target] = step.rows_after
    return result
