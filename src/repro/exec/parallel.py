"""Simulated multi-threaded execution cost model (Figure 14).

The paper repeats the robustness experiments with 32 threads and observes
that RPT stays robust, but the *variance* across random plans grows because
some plans place a small (heavily reduced) table on the probe side of a long
pipeline — it then has too few data chunks to keep 32 threads busy.

This module is the **deterministic figure-reproduction path** for that
effect: the measured single-threaded work of each pipeline is divided by
the *effective parallelism*, which is capped by the number of data chunks
the probe side provides.  The per-query output is a simulated parallel
execution time that exhibits exactly the under-utilization effect, free of
measurement noise.

The engine also has a *real* morsel-parallel runtime — the ``"parallel"``
preset of :class:`~repro.exec.pipeline.MorselBackend`, a morsel scheduler
over a thread pool whose NumPy kernels release the GIL.  Its per-op morsel
counters (``OpStats.morsels``) expose the same quantity this model caps
parallelism by (morsels available per pipeline), so the simulated Figure 14
numbers and the real backend's utilization can be cross-checked over one
trace vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.exec.chunk import DEFAULT_CHUNK_SIZE, num_chunks
from repro.exec.faults import CancelToken
from repro.exec.statistics import ExecutionStats

_T = TypeVar("_T")


def gather_in_order(
    futures: Sequence["object"],
    cancel: Optional[CancelToken] = None,
    on_drain: Optional[Callable[[], None]] = None,
) -> List[_T]:
    """Gather futures in submission order, checking the cancel token between morsels.

    The in-order gather is what makes the thread and process backends
    bit-identical to serial — morsel results are concatenated in submission
    order regardless of completion order.  This shared helper adds the
    cooperative-cancellation barrier: before blocking on each result the
    token is checked, and on expiry/cancel the remaining futures are
    cancelled (started ones are drained via ``on_drain``) before the typed
    error propagates — no worker is left running against segments the owner
    is about to unlink.
    """
    results: List[_T] = []
    try:
        for future in futures:
            if cancel is not None:
                cancel.check()
            results.append(future.result())  # type: ignore[attr-defined]
    except BaseException:
        for future in futures:
            cancel_fn = getattr(future, "cancel", None)
            if cancel_fn is not None:
                try:
                    cancel_fn()
                except Exception:  # pragma: no cover - future already done
                    pass
        if on_drain is not None:
            on_drain()
        raise
    return results


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


def simulate_parallel_costs(stats_list: List[ExecutionStats], model: ParallelismModel) -> List[float]:
    """Vectorized convenience wrapper over :func:`simulate_parallel_cost`."""
    return [simulate_parallel_cost(stats, model) for stats in stats_list]
