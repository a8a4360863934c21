"""Concurrent serving benchmark: closed-loop clients over the SQL workloads.

Runs the :mod:`repro.bench.serving` closed-loop driver over all checked-in
``.sql`` files in three regimes — clean serial, overload (offered load
above admission capacity), and chaos (deterministic fault injection under
concurrency) — and records p50/p95/p99 latency and QPS for
each into ``BENCH_serving.json`` at the repo root.

Beyond the numbers, every run *enforces* the serving acceptance contract:
completed queries are bit-identical to a single-threaded serial baseline,
failures are typed ``ReproError`` subclasses only, overload sheds with
typed ``AdmissionRejected`` (no hangs, no unbounded queues), and the run
ends with no backend pool thread alive and no query still active (the
driver raises otherwise).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import (
    build_serving_fleet,
    format_serving_report,
    print_report,
    run_serving_benchmark,
    write_bench_json,
)
from repro.engine.server import ServerConfig
from repro.workloads import sqlfiles

#: Where the perf-trajectory record lands (repo root, next to ROADMAP.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Workload scale for the serving sweep (every checked-in file; kept small so
#: the closed-loop run measures serving overheads, not scan time).
SERVING_SCALE = 0.05

REQUIRED_FIELDS = ("p50_ms", "p95_ms", "p99_ms", "qps", "completed", "rejected", "verified")


@pytest.mark.benchmark(group="serving")
def test_closed_loop_serving_over_sql_workloads(benchmark, tmp_path):
    def run():
        fleet = build_serving_fleet(scale=SERVING_SCALE, seed=1)
        try:
            clean_serial = run_serving_benchmark(
                fleet, clients=8, rounds=2, seed=17, backend="serial",
                kind="clean_serial",
            )
            chaos = run_serving_benchmark(
                fleet, clients=8, rounds=1, seed=19, backend="serial",
                fault_spec="seed:1234,rate:0.05", kind="chaos",
            )
        finally:
            fleet.close()

        # Overload regime: one slot, a one-deep queue, and a near-zero
        # admission wait against eight un-retrying clients — far more
        # offered load than capacity, so shedding must kick in.
        overload_fleet = build_serving_fleet(
            scale=SERVING_SCALE,
            seed=1,
            stems=sqlfiles.stems_for("tpch"),
            server_config=ServerConfig(
                max_concurrent=1, max_queue=1, admission_timeout_seconds=0.02
            ),
        )
        try:
            overload = run_serving_benchmark(
                overload_fleet, clients=8, rounds=2, seed=20, backend="serial",
                retry_rejections=False, kind="overload",
            )
        finally:
            overload_fleet.close()
        return [clean_serial, chaos, overload]

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    for report in reports:
        print_report(format_serving_report(report))

    # Refresh the committed perf-trajectory record only when explicitly
    # recording (REPRO_BENCH_RECORD=1); a plain run writes to tmp so the
    # suite never dirties the working tree.
    target = (
        BENCH_JSON_PATH
        if os.environ.get("REPRO_BENCH_RECORD")
        else tmp_path / "BENCH_serving.json"
    )
    written = write_bench_json(
        target,
        name="serving_microbench",
        measurements=[report.as_dict() for report in reports],
        metadata={"scale": SERVING_SCALE, "statements": reports[0].statements},
    )
    recorded = json.loads(written.read_text())["measurements"]
    assert len(recorded) == 3
    for measurement in recorded:
        for fld in REQUIRED_FIELDS:
            assert fld in measurement, f"{measurement['kind']} missing {fld}"

    clean_serial, chaos, overload = reports
    # The clean run completes everything, bit-identically.
    assert clean_serial.completed == clean_serial.statements * 2
    assert clean_serial.verified
    assert clean_serial.shed == 0
    assert not clean_serial.typed_errors
    # Chaos: every statement either completed bit-identically or raised a
    # typed error (the driver enforces bit-identity and leak-freedom).
    assert chaos.completed + sum(chaos.typed_errors.values()) + chaos.shed == (
        chaos.statements
    )
    # Overload: offered load far above capacity must shed with typed
    # rejections rather than hang — and still complete some queries.
    assert overload.rejected > 0
    assert overload.completed > 0
    assert overload.verified
