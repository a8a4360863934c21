"""Checks on ``ExecutionStats`` shared by the fault and observability tests."""

from __future__ import annotations

from repro.exec.statistics import COUNTERS, ExecutionStats


def assert_totals_are_sums(stats: ExecutionStats) -> None:
    """Every ``COUNTERS`` total on ``stats`` is the sum of its op field over
    ``op_stats`` (a build/probe pair's shared flag counts once, on the probe)."""
    for counter in COUNTERS:
        if counter.total:
            ops = [
                op for op in stats.op_stats if not (counter.per_step and op.kind == "bloom_build")
            ]
            assert getattr(stats, counter.total) == sum(
                getattr(op, counter.field) for op in ops
            ), counter.total
