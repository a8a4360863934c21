"""Figures 14, 15, and 16.

* **Figure 14** — robustness under (simulated) 32-thread execution: RPT keeps
  its orders-of-magnitude robustness advantage, though per-plan variance
  grows because small probe sides under-utilize the threads.
* **Figure 15** (on-disk and spilling execution) is not reproduced: the
  engine has no out-of-core path.
* **Figure 16** — microbenchmark: blocked Bloom-filter probes vs hash-table
  probes as the build side grows.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_PLANS, MODES_MAIN
from repro.bench import CASES, print_report, run_case, run_random_plan_experiment
from repro.bench.simulation import ParallelismModel, simulate_parallel_cost
from repro.core import robustness_factor
from repro.engine.modes import ExecutionMode
from repro.optimizer import generate_left_deep_plans
from repro.workloads import tpch


@pytest.mark.benchmark(group="figure14")
def test_fig14_multithreaded_robustness(benchmark, context):
    def run():
        db = context.database("tpch")
        model = ParallelismModel(num_threads=32)
        factors = {}
        for number in (3, 10, 18):
            query = tpch.query(number)
            graph = db.join_graph(query)
            plans = generate_left_deep_plans(graph, BENCH_PLANS, seed=number)
            for mode in MODES_MAIN:
                costs = [
                    simulate_parallel_cost(db.execute(query, mode=mode, plan=p).stats, model)
                    for p in plans
                ]
                factors[(query.name, mode)] = robustness_factor(query.name, mode.value, costs).factor
        return factors

    factors = benchmark.pedantic(run, rounds=1, iterations=1)
    query_names = sorted({q for q, _ in factors})
    lines = ["Figure 14: robustness with simulated 32-thread execution",
             f"{'query':<12} {'DuckDB RF':>10} {'RPT RF':>8}"]
    for name in query_names:
        lines.append(
            f"{name:<12} {factors[(name, ExecutionMode.BASELINE)]:>10.2f} "
            f"{factors[(name, ExecutionMode.RPT)]:>8.2f}"
        )
        # RPT stays robust under parallel execution (the paper notes its variance
        # grows slightly because small probe sides under-utilize the threads).
        assert factors[(name, ExecutionMode.RPT)] < 4.0
    avg_baseline = sum(factors[(n, ExecutionMode.BASELINE)] for n in query_names) / len(query_names)
    avg_rpt = sum(factors[(n, ExecutionMode.RPT)] for n in query_names) / len(query_names)
    assert avg_rpt <= avg_baseline * 1.2
    print_report("\n".join(lines))


@pytest.mark.benchmark(group="figure16")
def test_fig16_bloom_vs_hash_probe(benchmark):
    # The paper fixes the probe side at 10^9 rows and sweeps the build side
    # from 128 to 10^9; the `bloom_probe` case is one point of that sweep.
    records = benchmark.pedantic(
        lambda: [
            run_case(CASES["bloom_probe"], repeats=1, build_rows=build_rows)
            for build_rows in (128, 1_024, 8_192, 65_536, 262_144)
        ],
        rounds=1,
        iterations=1,
    )
    lines = [
        "Figure 16: Bloom probe vs hash probe (probe side fixed, build side varies)",
        f"{'build rows':>12} {'hash (s)':>10} {'bloom (s)':>10} {'exact SJ (s)':>13} {'bloom speedup':>14}",
    ]
    for record in records:
        hash_, bloom, exact = (record["variants"][v]["median"] for v in ("hash", "bloom", "exact"))
        lines.append(
            f"{record['sizes']['build_rows']:>12} {hash_:>10.4f} {bloom:>10.4f} {exact:>13.4f} "
            f"{record['ratios']['bloom_advantage']:>13.1f}x"
        )
    print_report("\n".join(lines))
    # Shape: Bloom probes beat hash probes, and the advantage does not shrink
    # as the build side outgrows the caches (paper: 2-7x, growing with size).
    large = [r for r in records if r["sizes"]["build_rows"] >= 8_192]
    assert all(r["ratios"]["bloom_advantage"] > 1.0 for r in large)
