"""Figures 11, 12, and 13.

* **Figure 11** — case study on JOB template 2: total intermediate-result
  sizes of the best and worst random left-deep plans, with and without RPT.
  Expected shape: a large worst/best ratio without RPT (paper: 179x), a ratio
  near 1 with RPT, and RPT's intermediates bounded by joins x output size.
* **Figure 12** — the adversarial empty-output query where every plan without
  RPT processes a quadratic intermediate.
* **Figure 13** — robustness of the transfer phase itself: 50 random
  LargestRoot join trees (largest relation kept at the root) produce nearly
  identical execution costs.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import BENCH_PLANS
from repro.bench import format_case_study, print_report
from repro.core import largest_root_random, schedule_from_tree
from repro.engine.modes import ExecutionMode
from repro.exec import PipelineExecutor
from repro.exec.statistics import ExecutionStats
from repro.optimizer import generate_left_deep_plans, iter_all_left_deep_orders
from repro.plan.join_plan import JoinPlan
from repro.plan.physical import compile_execution
from repro.workloads import job, synthetic, tpch


@pytest.mark.benchmark(group="figure11")
def test_fig11_case_study_job2(benchmark, context):
    def run():
        db = context.database("job")
        query = job.query(2)
        graph = db.join_graph(query)
        plans = generate_left_deep_plans(graph, max(BENCH_PLANS, 12), seed=11)
        rows = {}
        ratios = {}
        for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
            results = [db.execute(query, mode=mode, plan=p) for p in plans]
            ordered = sorted(results, key=lambda r: r.stats.total_intermediate_rows)
            best, worst = ordered[0], ordered[-1]
            rows[f"{mode.label} best"] = {
                "sum intermediates": float(best.stats.total_intermediate_rows),
                "output rows": float(best.stats.output_rows),
            }
            rows[f"{mode.label} worst"] = {
                "sum intermediates": float(worst.stats.total_intermediate_rows),
                "output rows": float(worst.stats.output_rows),
            }
            ratios[mode] = (
                worst.stats.total_intermediate_rows / max(best.stats.total_intermediate_rows, 1)
            )
            if mode is ExecutionMode.RPT:
                bound = query.num_joins * max(worst.stats.output_rows, 1)
                rows["RPT worst"]["yannakakis bound"] = float(bound)
        return rows, ratios

    rows, ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(format_case_study("Figure 11: JOB template 2 case study", rows))
    assert ratios[ExecutionMode.RPT] <= ratios[ExecutionMode.BASELINE]
    assert ratios[ExecutionMode.RPT] < 3.0


@pytest.mark.benchmark(group="figure12")
def test_fig12_adversarial_quadratic_blowup(benchmark):
    def run():
        instance = synthetic.figure12_instance(n=600)
        db, query = instance.database, instance.query
        graph = db.join_graph(query)
        worst_baseline = 0
        worst_rpt = 0
        for order in iter_all_left_deep_orders(graph):
            plan = JoinPlan.from_left_deep(order)
            worst_baseline = max(
                worst_baseline,
                db.execute(query, mode=ExecutionMode.BASELINE, plan=plan).stats.total_intermediate_rows,
            )
            worst_rpt = max(
                worst_rpt,
                db.execute(query, mode=ExecutionMode.RPT, plan=plan).stats.total_intermediate_rows,
            )
        return worst_baseline, worst_rpt

    worst_baseline, worst_rpt = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        "Figure 12: adversarial empty-output query (N=600)\n"
        f"  worst plan without RPT : {worst_baseline} intermediate tuples (quadratic)\n"
        f"  worst plan with RPT    : {worst_rpt} intermediate tuples"
    )
    assert worst_baseline >= (600 // 2) ** 2 // 2
    assert worst_rpt == 0


@pytest.mark.benchmark(group="figure13")
def test_fig13_random_largest_root_trees(benchmark, context):
    """Random join trees with the largest relation at the root all perform alike."""

    def run():
        db = context.database("tpch")
        rng = random.Random(13)
        costs_by_query = {}
        for number in (3, 8, 10):
            query = tpch.query(number)
            graph = db.join_graph(query)
            plan = db.optimizer_plan(query)
            tables = {ref.alias: db.table(ref.table) for ref in query.relations}
            costs = []
            for _ in range(12):
                # The engine always schedules its own LargestRoot tree, so a
                # random tree goes through the compile + run pair underneath.
                tree = largest_root_random(graph, rng)
                physical = compile_execution(
                    query, ExecutionMode.RPT, plan, graph,
                    tables=tables, schedule=schedule_from_tree(tree),
                )
                stats = ExecutionStats(query_name=query.name, mode="rpt-random-tree")
                PipelineExecutor(query, graph, catalog=db.catalog).run(physical, stats)
                costs.append(stats.cost("tuples"))
            costs_by_query[query.name] = costs
        return costs_by_query

    costs_by_query = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Figure 13: 50-random-LargestRoot-tree experiment (12 trees per query here)",
             f"{'query':<12} {'min':>12} {'max':>12} {'max/min':>9}"]
    for name, costs in costs_by_query.items():
        ratio = max(costs) / min(costs)
        lines.append(f"{name:<12} {min(costs):>12.0f} {max(costs):>12.0f} {ratio:>8.2f}x")
        # Transfer-phase robustness: different join trees (same root) behave nearly identically.
        assert ratio < 2.0
    print_report("\n".join(lines))
