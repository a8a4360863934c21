"""Execution statistics: the measurement substrate of every experiment.

The paper's evidence is per-operator accounting: wall-clock time per phase
(Figures 6-10, 13-15, Tables 1-3) and exact tuple counts per semi-join step
and per binary join (Figure 11, the theory in §3), so the robustness metrics
(:mod:`repro.core.robustness`) can be computed over wall time, a
deterministic cost model, or raw intermediate tuple counts.

Everything an op *counts* has one owner: its :class:`OpStats` record.  The
executor opens the record, handlers and counter sources (hash cache,
backend, memory governor, plan-time filter evaluation) write into it, and
it is closed and appended in one place.  :data:`COUNTERS` — one row per
field — derives the rest: the per-query totals on :class:`ExecutionStats`
(read-only sums over ``op_stats``), the ``op_trace()`` markers, the
``*_summary()`` lines, the op span's attributes and events, and the query
log's sections.  Adding a counter is one field plus one row.  What happens
outside an op keeps its own home: backend-ladder rungs
(``ExecutionStats.degradations``), :class:`TransferStepStats` /
:class:`JoinStepStats` (the paper's cost quantities), :class:`PhaseTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple


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
    #: The skip was the adaptive controller's decision (not the static §4.3
    #: PK-FK pruning) / the step ran as an exact bitmap semi-join, not Bloom.
    adaptive_skipped: bool = False
    downgraded_exact: bool = False

    @property
    def rows_eliminated(self) -> int:
        """Tuples removed from the target by this step."""
        return self.rows_before - self.rows_after


@dataclass
class OpStats:
    """The record of one op of a compiled plan — the owner of its counters.

    Every execution mode compiles to the same typed op set, so the records
    are also the *uniform trace*: a baseline run and an RPT run compare op
    by op (kind, cardinalities, wall time) without mode-specific bookkeeping.
    """

    index: int
    kind: str
    detail: str = ""
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    skipped: bool = False
    #: Morsels the backend dispatched for this op (0 when
    #: it ran as one whole-column kernel call).
    morsels: int = 0
    #: The adaptive controller cancelled this op's transfer step / the
    #: executor ran it as an exact bitmap semi-join instead of a Bloom build
    #: + probe (dense build-side key domain).
    adaptive_skipped: bool = False
    downgraded_exact: bool = False
    #: The index this hash build built / this hash probe matched against:
    #: ``"direct-unique"``, ``"direct"`` (duplicate build keys) or ``"sorted"``
    #: (:attr:`HashIndex.match_kind <repro.exec.kernels.HashIndex.match_kind>`).
    join_index: str = ""
    #: Memory governor, while this op reserved or touched budget: spills
    #: ordered, bytes re-read after a spill, spill writes that failed.
    spill_events: int = 0
    spilled_bytes: int = 0
    reloaded_bytes: int = 0
    spill_failures: int = 0
    #: Hash-cache column passes reused / computed; rows carried through
    #: selection vectors instead of materialized key arrays.
    hash_hits: int = 0
    hash_misses: int = 0
    selvec_rows: int = 0
    #: Cross-query artifact cache (prebuilt Bloom filter / hash index).
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: The degradation rung this op took (``"governor:spill-retry"``), if any.
    degraded: str = ""
    #: The query aborted (timeout, cancel, error) inside this op; the other
    #: fields hold what it had done by then.
    aborted: bool = False


class Counter(NamedTuple):
    """One :data:`COUNTERS` row: everywhere one :class:`OpStats` field shows up."""

    field: str
    #: ``ExecutionStats`` attribute its sum over ``op_stats`` reads under.
    total: str = ""
    #: ``op_trace()`` marker, formatted over the op's fields.
    marker: str = ""
    #: Summary line (``cache`` / ``adaptive`` / ``degraded``)
    #: and its part of that line, formatted over :meth:`ExecutionStats.sums`.
    group: str = ""
    summary: str = ""
    #: Sibling field that also triggers the marker / summary part.
    pair: str = ""
    #: Span event for a non-zero value, with its ``(attr, field)`` pairs.
    event: str = ""
    event_attrs: Tuple[Tuple[str, str], ...] = ()
    #: ``QueryLogRecord`` slot, as ``"section.key"``.
    log: str = ""
    #: Both ops of a build/probe pair carry the flag; the total counts steps.
    per_step: bool = False
    #: For a label-valued field: the label whose occurrences the total counts.
    counts: str = ""


#: Row order is the order of markers, summary parts and span events.
COUNTERS: Tuple[Counter, ...] = (
    Counter("morsels"),
    Counter("adaptive_skipped", "adaptive_steps_skipped", " [adaptive skip]", "adaptive",
            "skipped {adaptive_skipped} step(s)", event="adaptive:skip",
            log="adaptive.steps_skipped", per_step=True),
    Counter("spilled_bytes", "spilled_bytes", " [spilled {spilled_bytes}B]",
            event="governor:spill", event_attrs=(("bytes", "spilled_bytes"),)),
    Counter("hash_hits", "hash_reuse_hits", " [hash {hash_hits}h/{hash_misses}m]", "cache",
            "hash passes {hash_hits}h/{hash_misses}m", pair="hash_misses", log="cache.hash_hits"),
    Counter("hash_misses", "hash_reuse_misses", log="cache.hash_misses"),
    Counter("selvec_rows", "selection_vector_rows", " [selvec {selvec_rows}r]", "cache",
            "selection-vector rows {selvec_rows}"),
    Counter("artifact_hits", "artifact_cache_hits", " [artifact hit]", log="cache.artifact_hits"),
    Counter("artifact_misses", "artifact_cache_misses", group="cache",
            summary="artifact cache {artifact_hits}h/{artifact_misses}m", pair="artifact_hits",
            log="cache.artifact_misses"),
    Counter("downgraded_exact", "adaptive_exact_downgrades", " [exact bitmap]", "adaptive",
            "{downgraded_exact} exact-bitmap downgrade(s)", event="adaptive:exact-bitmap",
            log="adaptive.exact_downgrades", per_step=True),
    Counter("join_index", "sorted_index_joins", " [{join_index}]",
            log="adaptive.sorted_index_joins", per_step=True, counts="sorted"),
    Counter("spill_failures", "spill_failures", group="degraded",
            summary="{spill_failures} failed spill write(s)"),
    Counter("degraded", marker=" [degraded {degraded}]", event="degraded",
            event_attrs=(("rung", "degraded"),)),
    Counter("aborted", marker=" [aborted]"),
    Counter("spill_events", "spill_events"),
    Counter("reloaded_bytes", "reloaded_bytes"),
)


@dataclass
class JoinStepStats:
    """Statistics for one binary join of the join phase."""

    left_aliases: tuple[str, ...]
    right_aliases: tuple[str, ...]
    probe_rows: int
    build_rows: int
    output_rows: int
    bloom_prefiltered_rows: int = 0


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
    #: Degradation-ladder rungs taken, each once, in first-occurrence order —
    #: ``"backend:parallel->serial"`` (pool unavailable),
    #: ``"governor:spill-retry"`` — and how often each fired.
    degradations: List[str] = field(default_factory=list)
    degradation_counts: Dict[str, int] = field(default_factory=dict)

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

    def sums(self) -> Dict[str, int]:
        """Every :data:`COUNTERS` total, by field name.

        Each also reads as an attribute under its row's ``total`` name
        (``stats.hash_reuse_hits``, ...): a sum over ``op_stats``, never set.
        """
        return {c.field: getattr(self, c.total) for c in COUNTERS if c.total}

    def op_trace(self) -> str:
        """Uniform per-op execution trace shared by every execution mode."""
        if not self.op_stats:
            return "(no physical-plan trace recorded)"
        lines = [
            f"{'#':>3} {'op':<22} {'rows in':>10} {'rows out':>10} {'seconds':>10} "
            f"{'morsels':>8}  detail"
        ]
        for op in self.op_stats:
            fields = vars(op)
            marker = " [skipped]" if op.skipped and not op.adaptive_skipped else ""
            for c in COUNTERS:
                if c.marker and (fields[c.field] or (c.pair and fields[c.pair])):
                    marker += c.marker.format_map(fields)
            lines.append(
                f"{op.index:>3} {op.kind:<22} {op.rows_in:>10} {op.rows_out:>10} "
                f"{op.seconds:>10.6f} {op.morsels:>8}  {op.detail}{marker}"
            )
        return "\n".join(lines)

    def _summary(self, group: str, lead: str = "") -> str:
        """One summary line: every non-zero :data:`COUNTERS` part of ``group``."""
        sums = self.sums()
        parts = [lead] if lead else []
        for c in COUNTERS:
            if c.group == group and (sums[c.field] or (c.pair and sums[c.pair])):
                parts.append(c.summary.format_map(sums))
        return f"{group}: " + ", ".join(parts) if parts else ""

    def cache_summary(self) -> str:
        """One-line hash / selection-vector / artifact caching summary ('' if none)."""
        return self._summary("cache")

    def adaptive_summary(self) -> str:
        """One-line summary of the adaptive controller's decisions ('' if none)."""
        return self._summary("adaptive")

    def record_degradation(self, rung: str) -> None:
        """Count one degradation event (they fire per op or per reservation)
        and list its rung once, in first-occurrence order."""
        self.degradation_counts[rung] = self.degradation_counts.get(rung, 0) + 1
        if rung not in self.degradations:
            self.degradations.append(rung)

    def degradation_summary(self) -> str:
        """One-line fault-recovery / degradation-ladder summary ('' if none)."""
        rungs = []
        for rung in self.degradations:
            count = self.degradation_counts.get(rung, 1)
            rungs.append(f"{rung} x{count}" if count > 1 else rung)
        return self._summary("degraded", lead="; ".join(rungs))

    def execution_summary(self) -> str:
        """The three summary lines joined (what ``format_op_traces`` appends)."""
        lines = [self._summary(group) for group in ("cache", "adaptive")]
        return " | ".join(line for line in lines + [self.degradation_summary()] if line)

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


def _total(counter: Counter) -> property:
    def total(self: ExecutionStats) -> int:
        ops = self.op_stats
        if counter.per_step:
            ops = [op for op in ops if op.kind not in ("bloom_build", "hash_build")]
        values = (getattr(op, counter.field) for op in ops)
        return sum(value == counter.counts for value in values) if counter.counts else sum(values)

    return property(total, doc=f"Sum of ``OpStats.{counter.field}`` over ``op_stats``.")


for _counter in COUNTERS:
    if _counter.total:
        setattr(ExecutionStats, _counter.total, _total(_counter))
