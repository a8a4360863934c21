"""Benchmark harness: experiment runners, microbenchmark cases, serving driver, report printers."""

from repro.bench.harness import (
    DEFAULT_METRIC,
    DEFAULT_SCALE,
    PlanCost,
    RandomPlanExperiment,
    WorkloadContext,
    average_speedups,
    robustness_table,
    run_random_plan_experiment,
    run_speedup_experiment,
    run_sql_trace,
    run_uniform_trace,
    write_bench_json,
)
from repro.bench.microbench import CASES, format_case, run_case
from repro.bench.serving import (
    ServingFleet,
    ServingReport,
    build_serving_fleet,
    format_serving_report,
    run_serving_benchmark,
)
from repro.bench.reporting import (
    format_case_study,
    format_distribution_series,
    format_op_traces,
    format_robustness_factors,
    format_robustness_table,
    format_speedup_table,
    print_report,
)

__all__ = [
    "CASES",
    "DEFAULT_METRIC",
    "DEFAULT_SCALE",
    "PlanCost",
    "RandomPlanExperiment",
    "ServingFleet",
    "ServingReport",
    "WorkloadContext",
    "average_speedups",
    "build_serving_fleet",
    "format_case",
    "format_case_study",
    "format_distribution_series",
    "format_op_traces",
    "format_robustness_factors",
    "format_robustness_table",
    "format_serving_report",
    "format_speedup_table",
    "print_report",
    "robustness_table",
    "run_case",
    "run_random_plan_experiment",
    "run_serving_benchmark",
    "run_speedup_experiment",
    "run_sql_trace",
    "run_uniform_trace",
    "write_bench_json",
]
