"""Memory governance: the live :class:`MemoryGovernor`.

:class:`MemoryGovernor` is the memory-budget authority of the pipeline
executor.  Operators reserve budget for the build sides they materialize; when a
reservation pushes the total over budget, the governor
evicts least-recently-used evictable reservations through a spill handler
(:class:`~repro.exec.spill.SpillManager`), and a later touch of a spilled
reservation charges the reload.  Execution results are bit-identical with
or without a budget — only the accounted I/O (:class:`IoStatistics`) and
the spill/reload counters change.  (The Figure 15 accounting model over a
finished trace lives in :mod:`repro.bench.simulation`.)
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.errors import MemoryExhausted


@dataclass
class IoStatistics:
    """Counters describing simulated I/O activity."""

    bytes_read_from_disk: int = 0
    bytes_written_to_disk: int = 0
    bytes_served_from_memory: int = 0
    evictions: int = 0

    def simulated_seconds(self, read_mb_per_s: float = 550.0, write_mb_per_s: float = 520.0) -> float:
        """Translate counters into a simulated elapsed I/O time.

        Default throughputs approximate the SATA SSD used in the paper's
        testbed (Samsung 870 QVO).
        """
        mb = 1024.0 * 1024.0
        read_s = self.bytes_read_from_disk / mb / read_mb_per_s
        write_s = self.bytes_written_to_disk / mb / write_mb_per_s
        return read_s + write_s


# ---------------------------------------------------------------------------
# The live memory governor
# ---------------------------------------------------------------------------
#: Every governor ever constructed (weakly referenced): the test-suite leak
#: guard sweeps this to prove no reservation outlives its query, no matter
#: which exit path — success, fault, timeout — the query took.
_GOVERNORS: "weakref.WeakSet[MemoryGovernor]" = weakref.WeakSet()


def outstanding_reservations() -> Tuple[Tuple[str, int], ...]:
    """(key, size) of every live reservation across all live governors."""
    found: List[Tuple[str, int]] = []
    for governor in list(_GOVERNORS):
        for reservation in governor._reservations.values():
            found.append((reservation.key, reservation.size_bytes))
    return tuple(found)


def assert_no_outstanding_reservations() -> None:
    """Raise when any live governor still holds reservations."""
    outstanding = outstanding_reservations()
    if outstanding:
        keys = sorted(key for key, _ in outstanding)
        raise MemoryExhausted(f"leaked governor reservations: {keys}")


class SpillHandler(Protocol):
    """What the governor calls when it must evict or reload a reservation."""

    def spill(self, key: str, size_bytes: int) -> None:
        """Evict ``key`` from memory (charge the write)."""

    def reload(self, key: str, size_bytes: int) -> None:
        """Bring a spilled ``key`` back (charge the read)."""


@dataclass
class _Reservation:
    """One live memory reservation."""

    key: str
    size_bytes: int
    evictable: bool
    last_use: int
    spilled: bool = False


class MemoryGovernor:
    """Grants, tracks, and reclaims the executor's memory budget *during* a run.

    The governor sits in the execution hot path: an operator calls
    :meth:`reserve` for a build side it materializes,
    :meth:`touch` before probing it, and :meth:`release` once the data is
    dead.  When a reservation exceeds the budget, the least-recently-used
    *evictable* reservations are spilled through the handler until the total
    fits (the reservation being admitted is pinned); touching a spilled
    reservation reloads it, which may in turn evict others.

    A ``budget_bytes`` of ``None`` disables eviction but still tracks the
    peak footprint, which is how the engine measures an unbudgeted run to
    derive a budget for a constrained one (the Figure 15 "+spill" setup:
    ≈50% of peak).
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        spill_handler: Optional[SpillHandler] = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("memory budget must be non-negative")
        self.budget_bytes = budget_bytes
        self.spill_handler = spill_handler
        self.peak_reserved_bytes = 0
        self.spill_events = 0
        self.spilled_bytes = 0
        self.reload_events = 0
        self.reloaded_bytes = 0
        self.spill_failures = 0
        #: Where spills, reloads and failed spill writes are counted: the
        #: governor's own four attributes above, or — while an executor has
        #: pointed it at one — the open op's record (same field names).
        self.record: Optional[object] = None
        self._reservations: Dict[str, _Reservation] = {}
        #: Running total of the resident (non-spilled) reservations' sizes,
        #: maintained wherever one is added, dropped, spilled or reloaded.
        self._resident_bytes = 0
        self._clock = 0
        _GOVERNORS.add(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def reserved_bytes(self) -> int:
        """Bytes currently resident (spilled reservations excluded)."""
        return self._resident_bytes

    @property
    def over_budget(self) -> bool:
        """True when the resident total currently exceeds the budget."""
        return self.budget_bytes is not None and self.reserved_bytes > self.budget_bytes

    def is_spilled(self, key: str) -> bool:
        """True when ``key`` is reserved but currently spilled."""
        reservation = self._reservations.get(key)
        return reservation is not None and reservation.spilled

    # ------------------------------------------------------------------
    # Reservation lifecycle
    # ------------------------------------------------------------------
    def reserve(
        self, key: str, size_bytes: int, evictable: bool = True, inject: bool = True
    ) -> None:
        """Reserve ``size_bytes`` for ``key`` before materializing it.

        Re-reserving an existing key resizes it.  If the new total exceeds
        the budget, LRU evictable reservations (other than ``key`` itself,
        which is pinned while being admitted) are spilled until the total
        fits or nothing evictable remains — a minimum working set is always
        admitted, as in any real memory broker.

        ``inject=False`` bypasses fault injection: the executor's
        spill-then-retry rung uses it so the retry after a synchronous spill
        models a real post-reclaim allocation, which succeeds.
        """
        if size_bytes < 0:
            raise ValueError(f"cannot reserve {size_bytes} bytes for {key!r}")
        # Injected allocation failure: the budget is "exhausted" for this
        # reservation.  The executor catches MemoryExhausted, synchronously
        # spills every evictable reservation, and retries once.
        if inject:
            from repro.exec import faults  # deferred: exec package imports this module

            if faults.should_fire("alloc.reserve"):
                raise MemoryExhausted(
                    f"injected allocation failure reserving {size_bytes} bytes for {key!r}"
                )
        self._clock += 1
        self._drop(key)
        self._reservations[key] = _Reservation(
            key=key, size_bytes=size_bytes, evictable=evictable, last_use=self._clock
        )
        self._resident_bytes += size_bytes
        self._reclaim(pinned=key)
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)

    def touch(self, key: str) -> bool:
        """Mark ``key`` as used; reload it when spilled.

        Returns ``True`` when the touch had to reload spilled data (the
        executor counts these as spill-induced re-reads).  Touching an
        unknown key is a no-op returning ``False`` (the caller may run
        without a governor for that operator).
        """
        reservation = self._reservations.get(key)
        if reservation is None:
            return False
        self._clock += 1
        reservation.last_use = self._clock
        if not reservation.spilled:
            return False
        reservation.spilled = False
        self._resident_bytes += reservation.size_bytes
        self.reload_events += 1
        (self.record or self).reloaded_bytes += reservation.size_bytes
        if self.spill_handler is not None:
            self.spill_handler.reload(reservation.key, reservation.size_bytes)
        self._reclaim(pinned=key)
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)
        return True

    def release(self, key: str) -> None:
        """Drop a reservation entirely (its data is dead; no I/O charged)."""
        self._drop(key)

    def release_all(self) -> None:
        """Drop every reservation (query teardown on any exit path)."""
        self._reservations.clear()
        self._resident_bytes = 0

    @property
    def outstanding(self) -> int:
        """Number of live reservations (spilled ones included)."""
        return len(self._reservations)

    def spill_evictables(self) -> int:
        """Force-spill every evictable resident reservation; return bytes freed.

        The executor's spill-then-retry rung calls this after an injected or
        genuine :class:`~repro.errors.MemoryExhausted` to free as much budget
        as possible before retrying the failed reservation once.
        """
        freed = 0
        for reservation in sorted(self._reservations.values(), key=lambda r: r.last_use):
            if not reservation.evictable or reservation.spilled:
                continue
            if self._spill_victim(reservation):
                freed += reservation.size_bytes
        return freed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop(self, key: str) -> None:
        reservation = self._reservations.pop(key, None)
        if reservation is not None and not reservation.spilled:
            self._resident_bytes -= reservation.size_bytes

    def _spill_victim(self, victim: _Reservation) -> bool:
        """Spill one reservation through the handler; False if the write failed.

        A failed spill (e.g. an injected ``spill.write`` fault) leaves the
        victim resident and counted in ``spill_failures`` — the governor
        moves on to the next victim rather than failing the query.
        """
        if self.spill_handler is not None:
            try:
                self.spill_handler.spill(victim.key, victim.size_bytes)
            except Exception:
                (self.record or self).spill_failures += 1
                return False
        victim.spilled = True
        self._resident_bytes -= victim.size_bytes
        sink = self.record or self
        sink.spill_events += 1
        sink.spilled_bytes += victim.size_bytes
        return True

    def _reclaim(self, pinned: str) -> None:
        if self.budget_bytes is None:
            return
        failed: set[str] = set()
        while self.reserved_bytes > self.budget_bytes:
            victims = [
                r
                for r in self._reservations.values()
                if r.evictable and not r.spilled and r.key != pinned and r.key not in failed
            ]
            if not victims:
                return
            victim = min(victims, key=lambda r: r.last_use)
            if not self._spill_victim(victim):
                failed.add(victim.key)
