"""The Figure 14 model: simulated multi-threaded execution cost.

The model executes nothing: it reads the trace of an execution the engine
already ran (:class:`~repro.exec.statistics.ExecutionStats`) and derives a
noise-free cost from it, so the figure is reproducible in CI regardless of
the host's core count.

The paper repeats the robustness experiments with 32 threads and observes
that RPT stays robust but the *variance* across random plans grows, because
some plans place a small (heavily reduced) table on the probe side of a long
pipeline, which then has too few data chunks to keep 32 threads busy.
:func:`simulate_parallel_cost` divides the measured single-threaded work of
each pipeline by its *effective parallelism*, capped by the number of chunks
the probe side provides — the same quantity the real morsel backends report
per op as ``OpStats.morsels``.

Figure 15 (base tables on disk, spilled state written and read back) is not
reproduced: the engine has no out-of-core path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.backends import DEFAULT_CHUNK_SIZE, num_chunks
from repro.exec.statistics import ExecutionStats


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
