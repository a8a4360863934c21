"""Tests for the MemoryGovernor and governed (budgeted) execution.

Covers the reservation/release invariants, LRU eviction ordering through the
:class:`~repro.exec.spill.SpillManager` callback, reload accounting on
touch, and the end-to-end guarantee the Figure 15 "+spill" setup relies on:
a run under a 50% memory budget spills — and still bit-matches the
unbudgeted result under every execution mode.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, ExecutionConfig, ExecutionMode, ExecutionOptions
from repro.exec.spill import SpillManager
from repro.storage.buffer import MemoryGovernor


# ---------------------------------------------------------------------------
# Reservation / release invariants
# ---------------------------------------------------------------------------
class TestReservationInvariants:
    def test_reserve_and_release_track_bytes(self):
        governor = MemoryGovernor()
        governor.reserve("a", 100)
        governor.reserve("b", 50)
        assert governor.reserved_bytes == 150
        assert governor.peak_reserved_bytes == 150
        governor.release("a")
        assert governor.reserved_bytes == 50
        # Peak is a high-water mark: releases never lower it.
        assert governor.peak_reserved_bytes == 150

    def test_re_reserving_resizes(self):
        governor = MemoryGovernor()
        governor.reserve("a", 100)
        governor.reserve("a", 40)
        assert governor.reserved_bytes == 40

    def test_release_is_idempotent_and_unknown_touch_is_noop(self):
        governor = MemoryGovernor()
        governor.reserve("a", 10)
        governor.release("a")
        governor.release("a")
        assert governor.reserved_bytes == 0
        assert governor.touch("never-reserved") is False

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            MemoryGovernor(budget_bytes=-1)
        governor = MemoryGovernor()
        with pytest.raises(ValueError):
            governor.reserve("a", -5)

    def test_unbudgeted_governor_never_spills(self):
        governor = MemoryGovernor()
        for i in range(10):
            governor.reserve(f"r{i}", 1_000_000)
        assert governor.spill_events == 0
        assert not governor.over_budget
        assert governor.peak_reserved_bytes == 10_000_000


# ---------------------------------------------------------------------------
# Eviction ordering and reload accounting
# ---------------------------------------------------------------------------
class TestEviction:
    def test_lru_eviction_order(self):
        spill = SpillManager()
        governor = MemoryGovernor(budget_bytes=250, spill_handler=spill)
        governor.reserve("a", 100)
        governor.reserve("b", 100)
        governor.touch("a")  # b is now the least recently used
        governor.reserve("c", 100)  # over budget: evict exactly one victim
        assert governor.is_spilled("b")
        assert not governor.is_spilled("a")
        assert not governor.is_spilled("c")
        assert governor.spill_events == 1
        assert governor.spilled_bytes == 100
        assert spill.spilled_bytes == 100

    def test_admitting_reservation_is_pinned(self):
        governor = MemoryGovernor(budget_bytes=50, spill_handler=SpillManager())
        governor.reserve("big", 100)  # alone and over budget: admitted anyway
        assert not governor.is_spilled("big")
        assert governor.over_budget
        assert governor.spill_events == 0

    def test_non_evictable_reservations_survive(self):
        governor = MemoryGovernor(budget_bytes=150, spill_handler=SpillManager())
        governor.reserve("pinned", 100, evictable=False)
        governor.reserve("victim", 100)
        governor.reserve("new", 100)
        assert not governor.is_spilled("pinned")
        assert governor.is_spilled("victim")

    def test_touch_reloads_spilled_data_and_charges_the_read(self):
        spill = SpillManager()
        governor = MemoryGovernor(budget_bytes=150, spill_handler=spill)
        governor.reserve("a", 100)
        governor.reserve("b", 100)  # evicts a
        assert governor.is_spilled("a")
        assert governor.touch("a") is True  # reload: a resident again, b evicted
        assert not governor.is_spilled("a")
        assert governor.is_spilled("b")
        assert governor.reload_events == 1
        assert governor.reloaded_bytes == 100
        assert spill.reloaded_bytes == 100
        assert spill.stats.bytes_written_to_disk == 200  # both evictions charged
        assert spill.simulated_seconds() > 0.0

    def test_resident_bytes_exclude_spilled(self):
        governor = MemoryGovernor(budget_bytes=100, spill_handler=SpillManager())
        governor.reserve("a", 80)
        governor.reserve("b", 80)
        assert governor.is_spilled("a")
        assert governor.reserved_bytes == 80

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("budget", [None, 400])
    def test_running_total_equals_the_sum_over_any_sequence(self, seed, budget):
        """``reserved_bytes`` is a running total; it — and the peak taken from
        it after each reserve / reload — must equal what re-summing the
        resident reservations gives, whatever the sequence (resizes of
        resident and spilled keys, failed spill writes, forced spills)."""
        rng = random.Random(seed)

        class FlakySpill(SpillManager):
            def spill(self, key, size_bytes):
                if rng.random() < 0.2:
                    raise OSError("spill write failed")
                super().spill(key, size_bytes)

        governor = MemoryGovernor(budget_bytes=budget, spill_handler=FlakySpill())
        keys = [f"k{i}" for i in range(6)]
        peak = 0

        def summed() -> int:
            return sum(r.size_bytes for r in governor._reservations.values() if not r.spilled)

        for _ in range(400):
            action = rng.choice(
                ["reserve"] * 4 + ["touch"] * 3 + ["release"] * 2 + ["spill_all", "release_all"]
            )
            key = rng.choice(keys)
            if action == "reserve":
                governor.reserve(key, rng.randrange(0, 300), evictable=rng.random() < 0.8)
                peak = max(peak, summed())
            elif action == "touch":
                if governor.touch(key):
                    peak = max(peak, summed())
            elif action == "release":
                governor.release(key)
            elif action == "spill_all":
                governor.spill_evictables()
            else:
                governor.release_all()
            assert governor.reserved_bytes == summed()
            assert governor.peak_reserved_bytes == peak
        assert governor.spill_failures > 0 or budget is None


# ---------------------------------------------------------------------------
# Governed execution bit-matches the unbudgeted run
# ---------------------------------------------------------------------------
class TestGovernedExecution:
    def _config(self, budget=None) -> ExecutionConfig:
        return ExecutionConfig(backend="serial", memory_budget_bytes=budget)

    def test_unbudgeted_run_records_peak(self, imdb_db, chain_query):
        result = imdb_db.execute(
            chain_query, options=ExecutionOptions(execution=self._config())
        )
        assert result.stats.peak_memory_bytes > 0
        assert result.stats.spill_events == 0

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_half_budget_spills_and_bit_matches(self, imdb_db, chain_query, mode):
        free = imdb_db.execute(
            chain_query, mode=mode, options=ExecutionOptions(execution=self._config())
        )
        budget = max(free.stats.peak_memory_bytes // 2, 1)
        governed = imdb_db.execute(
            chain_query, mode=mode, options=ExecutionOptions(execution=self._config(budget))
        )
        assert governed.stats.spill_events > 0, mode
        assert governed.stats.spilled_bytes > 0, mode
        assert governed.stats.timings.simulated_io > 0.0, mode
        # The budget changes only the accounting, never the answer.
        assert governed.aggregates == free.aggregates, mode
        assert governed.output_rows == free.output_rows, mode
        # Per-op trace attributes the spills to the ops that crossed the budget.
        assert sum(op.spilled_bytes for op in governed.op_stats) == governed.stats.spilled_bytes

    def test_env_var_budget(self, imdb_db, star_query, monkeypatch):
        free = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(max(free.stats.peak_memory_bytes // 2, 1)))
        governed = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert governed.execution_config.memory_budget_bytes is not None
        assert governed.aggregates == free.aggregates
