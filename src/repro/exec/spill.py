"""Spilling: the executor's live spill callback.

:class:`SpillManager` is the **executor callback** invoked by the
:class:`~repro.storage.buffer.MemoryGovernor` *while the query runs*.
When a reservation is evicted, the manager charges the write against its
:class:`~repro.storage.buffer.IoStatistics`; when a spilled reservation is
touched again, it charges the read.  The charges happen at the moment the
executor crosses the budget — not as an after-the-run accounting pass —
and the executor folds the resulting simulated I/O seconds into the run's
timings and surfaces per-op spill counters in ``ExecutionStats.op_stats``.
(The Figure 15 model over a finished trace is
:func:`repro.bench.simulation.simulate_spill`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import faults
from repro.storage.buffer import IoStatistics


@dataclass
class SpillManager:
    """Charges spill writes and reloads as the memory governor orders them.

    This is the :class:`~repro.storage.buffer.SpillHandler` the engine wires
    between the governor and the executor.  The data itself stays reachable
    (reductions in this engine are index arrays; "spilling" them means
    charging the disk round-trip they would cost), so execution results are
    bit-identical with or without a budget — exactly the property the
    memory-governor tests assert.
    """

    stats: IoStatistics = field(default_factory=IoStatistics)

    def spill(self, key: str, size_bytes: int) -> None:
        """Evict ``key``: charge the spill write.

        An injected ``spill.write`` fault raises here; the governor treats a
        failed write as "victim stays resident" and tries the next victim.
        """
        faults.fire("spill.write", f"injected spill-write failure for {key!r}")
        self.stats.bytes_written_to_disk += size_bytes
        self.stats.evictions += 1

    def reload(self, key: str, size_bytes: int) -> None:
        """Reload a spilled ``key``: charge the read."""
        faults.fire("spill.read", f"injected spill-read failure for {key!r}")
        self.stats.bytes_read_from_disk += size_bytes

    @property
    def spilled_bytes(self) -> int:
        """Total bytes written by governor-ordered spills."""
        return self.stats.bytes_written_to_disk

    @property
    def reloaded_bytes(self) -> int:
        """Total bytes re-read because they had been spilled."""
        return self.stats.bytes_read_from_disk

    def simulated_seconds(self) -> float:
        """Simulated elapsed I/O seconds of all spill traffic so far."""
        return self.stats.simulated_seconds()
