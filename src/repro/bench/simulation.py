"""Deterministic figure-reproduction models (Figures 14 and 15).

Neither model executes anything: both read the trace of an execution the
engine already ran (:class:`~repro.exec.statistics.ExecutionStats`, the
reduced relations) and derive a noise-free cost from it, so the figures are
reproducible in CI regardless of the host's core count and disk.

* **Figure 14** — :func:`simulate_parallel_cost`.  The paper repeats the
  robustness experiments with 32 threads and observes that RPT stays robust
  but the *variance* across random plans grows, because some plans place a
  small (heavily reduced) table on the probe side of a long pipeline, which
  then has too few data chunks to keep 32 threads busy.  The model divides
  the measured single-threaded work of each pipeline by its *effective
  parallelism*, capped by the number of chunks the probe side provides —
  the same quantity the real morsel backends report per op as
  ``OpStats.morsels``.
* **Figure 15** — :func:`simulate_spill`.  The "on-disk" / "+spill"
  configurations: I/O volumes are charged against a :class:`BufferManager`
  (a simulated LRU buffer pool).  The live counterpart is the
  :class:`~repro.storage.buffer.MemoryGovernor` with the
  :class:`~repro.exec.spill.SpillManager` callback, which charges the same
  :class:`~repro.storage.buffer.IoStatistics` while a query runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exec.backends import DEFAULT_CHUNK_SIZE, num_chunks
from repro.exec.relation import BoundRelation
from repro.exec.statistics import ExecutionStats
from repro.storage.buffer import IoStatistics


# ---------------------------------------------------------------------------
# Figure 14: simulated multi-threaded execution cost
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelismModel:
    """Parameters of the simulated multi-threaded execution."""

    num_threads: int = 32
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Fixed per-pipeline startup/coordination overhead in cost units.
    pipeline_overhead: float = 64.0

    def effective_parallelism(self, probe_rows: int) -> float:
        """Threads that can actually be kept busy by ``probe_rows`` of probe input."""
        chunks = num_chunks(probe_rows, self.chunk_size)
        if chunks == 0:
            return 1.0
        return float(min(self.num_threads, chunks))


def simulate_parallel_cost(stats: ExecutionStats, model: ParallelismModel) -> float:
    """Simulated parallel execution cost of an already-measured execution.

    Every join step is treated as one probing pipeline whose work is its
    probe + output tuple count; the build side is a separate (shorter)
    pipeline whose work is the build tuple count.  The transfer phase
    parallelizes over the probed relation's rows the same way.
    """
    total = 0.0
    for step in stats.join_steps:
        probe_work = float(step.probe_rows + step.output_rows)
        build_work = float(step.build_rows)
        probe_parallelism = model.effective_parallelism(step.probe_rows)
        build_parallelism = model.effective_parallelism(step.build_rows)
        total += probe_work / probe_parallelism + build_work / build_parallelism
        total += model.pipeline_overhead
    for step in stats.transfer_steps:
        if step.skipped:
            continue
        probe_parallelism = model.effective_parallelism(step.rows_before)
        total += float(step.rows_before) / probe_parallelism
        total += model.pipeline_overhead
    return total


# ---------------------------------------------------------------------------
# Figure 15: simulated buffer pool and spilling
# ---------------------------------------------------------------------------
@dataclass
class _Frame:
    """One resident buffer-pool frame."""

    key: str
    size_bytes: int
    dirty: bool
    last_use: int = 0


class BufferManager:
    """A simulated buffer pool with LRU eviction and I/O accounting.

    Parameters
    ----------
    memory_budget_bytes:
        Maximum number of bytes that may be resident at once.  ``None``
        means unlimited (pure in-memory execution, no spilling).
    """

    def __init__(self, memory_budget_bytes: Optional[int] = None) -> None:
        self.memory_budget_bytes = memory_budget_bytes
        self.stats = IoStatistics()
        self._frames: Dict[str, _Frame] = {}
        self._clock = 0
        self._on_disk: Dict[str, int] = {}  # key -> size for spilled/disk-resident data

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Bytes currently held in the (simulated) buffer pool."""
        return sum(f.size_bytes for f in self._frames.values())

    def register_on_disk(self, key: str, size_bytes: int) -> None:
        """Declare that ``key`` initially resides on disk (e.g. a base table)."""
        self._on_disk[key] = size_bytes

    def read(self, key: str, size_bytes: int) -> None:
        """Access ``key``; charge a disk read if it is not resident."""
        self._clock += 1
        frame = self._frames.get(key)
        if frame is not None:
            frame.last_use = self._clock
            self.stats.bytes_served_from_memory += size_bytes
            return
        # Not resident: it must come from disk (either registered or spilled).
        self.stats.bytes_read_from_disk += size_bytes
        self._admit(key, size_bytes, dirty=False)

    def write(self, key: str, size_bytes: int) -> None:
        """Materialize ``key`` (e.g. buffered chunks of a CreateBF sink)."""
        self._clock += 1
        self._admit(key, size_bytes, dirty=True)

    def release(self, key: str) -> None:
        """Drop ``key`` from the pool without charging a write (data is dead)."""
        self._frames.pop(key, None)
        self._on_disk.pop(key, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, key: str, size_bytes: int, dirty: bool) -> None:
        self._frames[key] = _Frame(key=key, size_bytes=size_bytes, dirty=dirty, last_use=self._clock)
        self._maybe_evict()

    def _maybe_evict(self) -> None:
        if self.memory_budget_bytes is None:
            return
        while self.resident_bytes > self.memory_budget_bytes and len(self._frames) > 1:
            victim = min(self._frames.values(), key=lambda f: f.last_use)
            del self._frames[victim.key]
            self.stats.evictions += 1
            if victim.dirty:
                # Spill to disk so a later read can find it.
                self.stats.bytes_written_to_disk += victim.size_bytes
                self._on_disk[victim.key] = victim.size_bytes


@dataclass(frozen=True)
class SpillConfig:
    """Configuration of the simulated disk experiment.

    Attributes
    ----------
    base_tables_on_disk:
        Charge an initial read of every base table (the "on-disk" setting).
    memory_budget_fraction:
        Memory budget as a fraction of the execution's peak materialized
        footprint; ``None`` disables spilling (pure "on-disk" run).
    """

    base_tables_on_disk: bool = True
    memory_budget_fraction: float | None = 0.5


def peak_materialized_bytes(
    stats: ExecutionStats, relations: Dict[str, BoundRelation]
) -> int:
    """Approximate peak footprint: reduced relations + largest join output."""
    reduced = sum(relation.estimated_bytes() for relation in relations.values())
    widest_join = 0
    for step in stats.join_steps:
        # Assume ~16 bytes per tuple per participating relation (row indices).
        width = 16 * (len(step.left_aliases) + len(step.right_aliases))
        widest_join = max(widest_join, step.output_rows * width)
    return reduced + widest_join


def simulate_spill(
    stats: ExecutionStats,
    relations: Dict[str, BoundRelation],
    config: SpillConfig,
) -> float:
    """Charge simulated I/O for an execution and return the added seconds.

    The returned value is also accumulated into ``stats.timings.simulated_io``.
    """
    peak = max(peak_materialized_bytes(stats, relations), 1)
    budget = None
    if config.memory_budget_fraction is not None:
        budget = int(peak * config.memory_budget_fraction)
    buffer = BufferManager(memory_budget_bytes=budget)

    if config.base_tables_on_disk:
        seen_tables: set[str] = set()
        for relation in relations.values():
            if relation.table.name in seen_tables:
                continue
            seen_tables.add(relation.table.name)
            buffer.register_on_disk(relation.table.name, relation.table.memory_bytes())
            buffer.read(relation.table.name, relation.table.memory_bytes())

    # Forward pass materializes the surviving chunks of each reduced relation.
    for alias, relation in relations.items():
        buffer.write(f"reduced:{alias}", relation.estimated_bytes())

    # The backward pass and the join phase re-read every reduced relation.
    for alias, relation in relations.items():
        buffer.read(f"reduced:{alias}", relation.estimated_bytes())

    seconds = buffer.stats.simulated_seconds()
    stats.timings.simulated_io += seconds
    return seconds
