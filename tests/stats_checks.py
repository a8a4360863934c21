"""Checks on ``ExecutionStats`` shared by the fault and observability tests."""

from __future__ import annotations

from repro.exec.statistics import COUNTERS, ExecutionStats


def assert_totals_are_sums(stats: ExecutionStats) -> None:
    """Every ``COUNTERS`` total on ``stats`` is the sum of its op field over
    ``op_stats`` (a build/probe pair's shared flag counts once, on the probe;
    a label-valued field counts the ops carrying the row's ``counts`` label)."""
    for counter in COUNTERS:
        if counter.total:
            builds = ("bloom_build", "hash_build") if counter.per_step else ()
            values = [getattr(op, counter.field) for op in stats.op_stats if op.kind not in builds]
            if counter.counts:
                values = [value == counter.counts for value in values]
            assert getattr(stats, counter.total) == sum(values), counter.total
