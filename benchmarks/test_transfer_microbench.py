"""Transfer-phase artifact-cache microbenchmark: cache off vs cold vs warm.

Every execution hashes each key column once and builds its own transfer
Bloom filters; with the cross-query artifact cache on, repeated queries stop
rebuilding identical filters and hash passes altogether.  This benchmark
measures the three regimes on a 1M-row star query and records the run as
``BENCH_transfer.json`` at the repo root so the transfer phase's performance
trajectory is tracked from session to session.

(The ``hash_once_speedup > 1.0`` gate compared against the per-pass
re-hashing path, which no longer exists.)
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import (
    format_transfer_microbench,
    print_report,
    run_transfer_microbench,
    write_bench_json,
)

#: Where the perf-trajectory record lands (repo root, next to ROADMAP.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_transfer.json"


@pytest.mark.benchmark(group="transfer")
def test_warm_artifacts_beat_rebuilding_at_1m_rows(benchmark, tmp_path):
    def run():
        return run_transfer_microbench(fact_sizes=(1 << 18, 1 << 20), repeats=3)

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(format_transfer_microbench(measurements))

    # Refresh the committed perf-trajectory record only when explicitly
    # recording (REPRO_BENCH_RECORD=1); a plain test run writes to tmp so
    # running the suite never dirties the working tree.
    target = (
        BENCH_JSON_PATH
        if os.environ.get("REPRO_BENCH_RECORD")
        else tmp_path / "BENCH_transfer.json"
    )
    written = write_bench_json(
        target,
        name="transfer_microbench",
        measurements=[m.as_dict() for m in measurements],
        metadata={"mode": "rpt", "num_dims": 2, "dim_selectivity": 0.5},
    )
    assert written.exists()

    at_1m = [m for m in measurements if m.fact_rows >= 1 << 20]
    assert at_1m, "sweep must include a >=1M-row fact side"
    for m in at_1m:
        assert m.warm_artifact_hits > 0
        if os.environ.get("CI"):
            # On shared CI runners only the structural outcome is asserted
            # (warm runs actually hit the cache and the JSON shape above is
            # valid); wall-clock ratios are too noisy there by design.
            continue
        # The acceptance point: a warm artifact cache beats rebuilding the
        # filters on repeated queries.  The committed BENCH_transfer.json
        # shows the real margin (~2-3x); the threshold here only guards flake.
        assert m.warm_speedup > 1.2, (
            f"warm artifact cache did not pay off at {m.fact_rows} rows: "
            f"{m.warm_artifact_seconds:.4f}s vs {m.no_artifact_seconds:.4f}s"
        )
