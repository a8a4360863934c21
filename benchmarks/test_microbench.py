"""Every microbenchmark case at its recorded size, gated from the case table.

One test per row of :data:`repro.bench.CASES`: run it, print it, assert its
exact counter checks and its timing gates.  A gate compares medians of
interleaved samples and fails only when the violation exceeds the recorded
spread of the two variants; a smaller violation prints as ``unresolved``.
What each case compares and what it gates is the table itself
(``src/repro/bench/microbench.py``; README "Benchmarks").

``REPRO_BENCH_RECORD=1`` merges each case's record into ``BENCH_micro.json``
at the repo root; a plain run writes to tmp so the suite never dirties the
working tree.  A record is refused when it could not say anything: the
``scaling`` curves on fewer than 2 cores, or any run with an ``unresolved``
gate (e.g. a tracing "overhead" measured negative beyond its own 2% gate).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import CASES, format_case, print_report, run_case, write_bench_json
from repro.bench.microbench import case_failures

#: Where the perf-trajectory record lands (repo root, next to ROADMAP.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_micro.json"


def _refusal(case, record) -> str:
    """Why this run must not overwrite the committed record ('' if it may)."""
    cores = os.cpu_count() or 1
    if cores < case.min_record_cores:
        return f"{case.name} needs >= {case.min_record_cores} cores to say anything, have {cores}"
    unresolved = [g["gate"] for g in record["gates"] if g["status"] == "unresolved"]
    return f"noise exceeds what {unresolved} can resolve" if unresolved else ""


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_case_holds_its_gates(case, benchmark, tmp_path):
    record = benchmark.pedantic(lambda: run_case(case), rounds=1, iterations=1)
    print_report(format_case(record))

    target = tmp_path / BENCH_JSON_PATH.name
    if os.environ.get("REPRO_BENCH_RECORD"):
        refusal = _refusal(case, record)
        if refusal:
            print_report(f"not recording {case.name}: {refusal}")
        else:
            target = BENCH_JSON_PATH
    kept = []
    if target.exists():
        kept = [m for m in json.loads(target.read_text())["measurements"] if m["case"] != case.name]
    write_bench_json(target, name="micro", measurements=kept + [record])

    assert not case_failures(record)
