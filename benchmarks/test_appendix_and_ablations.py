"""Appendix A/B/C reproductions and ablation benchmarks for RPT's design choices.

* **Appendix A (Figures 17-20)** — per-query optimizer-plan costs for all
  four modes are exercised by ``test_table3_speedups``; here we add the
  per-query breakdown for one benchmark so the series can be inspected.
* **Appendix B/C** — robustness distributions for Bloom Join and PT (not just
  the baseline and RPT).
* **Ablations** — the design knobs DESIGN.md calls out: pruning trivial
  PK-FK semi-joins, skipping the backward pass for aligned orders, the Bloom
  filter false-positive rate, and exact (Yannakakis) vs Bloom semi-joins.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_PLANS, MODES_ALL
from repro import ExecutionOptions
from repro.bench import print_report, robustness_table, run_random_plan_experiment
from repro.engine.modes import ExecutionMode
from repro.exec import TransferOptions
from repro.plan.join_plan import JoinPlan
from repro.workloads import tpch


@pytest.mark.benchmark(group="appendix")
def test_appendix_b_all_modes_robustness(benchmark, context):
    """Appendix B: Bloom Join does not improve robustness; PT mostly does; RPT always does."""

    def run():
        db = context.database("tpch")
        experiments = [
            run_random_plan_experiment(
                db, tpch.query(n), modes=MODES_ALL, num_plans=BENCH_PLANS, seed=n
            )
            for n in (3, 10, 18)
        ]
        return robustness_table(experiments, "TPC-H", MODES_ALL), experiments

    table, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Appendix B: robustness factors per mode (TPC-H sample, left-deep)"]
    for mode in MODES_ALL:
        summary = table[mode]
        lines.append(f"  {mode.label:<12} avg={summary.avg_rf:6.1f} min={summary.min_rf:5.1f} max={summary.max_rf:7.1f}")
    print_report("\n".join(lines))
    assert table[ExecutionMode.RPT].avg_rf <= table[ExecutionMode.BASELINE].avg_rf
    assert table[ExecutionMode.RPT].avg_rf <= table[ExecutionMode.BLOOM_JOIN].avg_rf
    assert table[ExecutionMode.RPT].max_rf <= table[ExecutionMode.PT].max_rf * 1.5


@pytest.mark.benchmark(group="appendix")
def test_appendix_a_per_query_mode_costs(benchmark, context):
    def run():
        db = context.database("tpch")
        rows = {}
        for number in (2, 3, 10, 11, 18, 21):
            query = tpch.query(number)
            plan = db.optimizer_plan(query)
            baseline = db.execute(query, mode=ExecutionMode.BASELINE, plan=plan).stats.cost("tuples")
            rows[query.name] = {
                mode.label: db.execute(query, mode=mode, plan=plan).stats.cost("tuples") / baseline
                for mode in MODES_ALL
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Appendix A / Figure 17: per-query cost normalized by the baseline (optimizer's plan)",
             f"{'query':<12}" + "".join(f"{m.label:>12}" for m in MODES_ALL)]
    for name, by_mode in rows.items():
        lines.append(f"{name:<12}" + "".join(f"{by_mode[m.label]:>12.2f}" for m in MODES_ALL))
    print_report("\n".join(lines))
    for by_mode in rows.values():
        assert by_mode["DuckDB"] == pytest.approx(1.0)


@pytest.mark.benchmark(group="ablation")
def test_ablation_pruning_and_backward_skip(benchmark, context):
    """§4.3 optimizations: pruning trivial semi-joins and skipping the backward pass."""

    def run():
        db = context.database("tpch")
        query = tpch.query(10)
        default = db.execute(query, mode=ExecutionMode.RPT)
        no_prune = db.execute(
            query, mode=ExecutionMode.RPT,
            options=ExecutionOptions(transfer=TransferOptions(prune_trivial_semijoins=False)),
        )
        aligned_plan = JoinPlan.from_left_deep(default.join_tree.aligned_join_order())
        skip_backward = db.execute(
            query, mode=ExecutionMode.RPT, plan=aligned_plan,
            options=ExecutionOptions(skip_backward_if_aligned=True),
        )
        full_backward = db.execute(query, mode=ExecutionMode.RPT, plan=aligned_plan)
        return default, no_prune, skip_backward, full_backward

    default, no_prune, skip_backward, full_backward = benchmark.pedantic(run, rounds=1, iterations=1)
    pruned_steps = sum(1 for s in default.stats.transfer_steps if s.skipped)
    print_report(
        "Ablation: §4.3 pruning optimizations (TPC-H Q10)\n"
        f"  trivial semi-joins pruned          : {pruned_steps}\n"
        f"  transfer steps (default)           : {len(default.stats.transfer_steps)}\n"
        f"  transfer steps (no pruning)        : {len(no_prune.stats.transfer_steps)}\n"
        f"  transfer steps (aligned, skip bwd) : {len(skip_backward.stats.transfer_steps)}\n"
        f"  transfer steps (aligned, full)     : {len(full_backward.stats.transfer_steps)}"
    )
    assert default.aggregates == no_prune.aggregates == skip_backward.aggregates
    assert len(skip_backward.stats.transfer_steps) < len(full_backward.stats.transfer_steps)


@pytest.mark.benchmark(group="ablation")
def test_ablation_bloom_fpr_and_exact_semijoin(benchmark, context):
    """FPR trade-off: tighter filters cost more memory but eliminate more tuples;
    exact semi-joins (Yannakakis) are the limit case."""

    def run():
        db = context.database("tpch")
        query = tpch.query(3)
        results = {}
        for label, fpr in (("fpr=0.001", 0.001), ("fpr=0.02", 0.02), ("fpr=0.2", 0.2)):
            options = ExecutionOptions(transfer=TransferOptions(fpr=fpr))
            results[label] = db.execute(query, mode=ExecutionMode.RPT, options=options)
        results["exact"] = db.execute(query, mode=ExecutionMode.YANNAKAKIS)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: Bloom FPR vs reduction quality (TPC-H Q3)",
             f"{'configuration':<12} {'bloom bytes':>12} {'surviving rows':>15} {'intermediates':>14}"]
    surviving = {}
    for label, result in results.items():
        total = sum(result.stats.reduced_rows.values())
        surviving[label] = total
        lines.append(
            f"{label:<12} {result.stats.bloom_bytes:>12} {total:>15} "
            f"{result.stats.total_intermediate_rows:>14}"
        )
    print_report("\n".join(lines))
    counts = {r.aggregates["count_star"] for r in results.values()}
    assert len(counts) == 1
    # Tighter filters never keep more tuples than looser ones; exact is the floor.
    assert surviving["fpr=0.001"] <= surviving["fpr=0.2"]
    assert surviving["exact"] <= surviving["fpr=0.001"]
