"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` is this catalogue written out (a self-test keeps the two
equal).  ``moves`` on a per-layer metric is the prediction written down
before measuring: which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "data generation + registration (+ server start); median of the run's set-ups"),
    EndToEnd("cold_sweep_s", "s", "lower", 0.25,
             "wall of the cold round: every op's first execution in the process"),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25,
             "read ops / round wall, median over timed rounds"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,
             "median over ops of each op's typical read latency (its median over the timed rounds)"),
    EndToEnd("query_p90_ms", "ms", "lower", 0.25,
             "90th percentile over ops of each op's typical read latency (its median over the timed rounds)"),
    EndToEnd("worst_order_ms", "ms", "lower", 0.25,
             "geomean over queries of the slowest tried plan's RPT latency (per-op median over rounds)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20,
             "ru_maxrss of the workload subprocess after the timed rounds"),
]

PER_LAYER: List[PerLayer] = [
    # sql: tokenize, parse_statement, bind_select, lower_select
    PerLayer("sql.lex_ms", "ms", "lower", "query_p50_ms on job_plan, serve_mixed; none on job_random_orders"),
    PerLayer("sql.parse_ms", "ms", "lower", "query_p50_ms on job_plan, serve_mixed; none on job_random_orders"),
    PerLayer("sql.bind_ms", "ms", "lower", "query_p50_ms on job_plan, serve_mixed; none on job_random_orders"),
    PerLayer("sql.lower_ms", "ms", "lower", "query_p50_ms on job_plan, serve_mixed; none on job_random_orders"),
    PerLayer("sql.statements", "count", "lower", "work count (exact)"),
    PerLayer("sql.tokens", "count", "lower", "work count (exact)"),
    # expr: Database.filter_masks
    PerLayer("expr.filter_ms", "ms", "lower", "queries_per_s on tpch_exec"),
    PerLayer("expr.rows_scanned", "count", "lower", "work count (exact)"),
    PerLayer("expr.rows_kept", "count", "lower", "work count (exact)"),
    # core: join_graph, largest_root, schedule_from_tree, is_safe_join_order
    PerLayer("core.join_graph_ms", "ms", "lower", "query_p50_ms on job_plan; none on tpch_exec"),
    PerLayer("core.largest_root_ms", "ms", "lower", "query_p50_ms on job_plan; none on tpch_exec"),
    PerLayer("core.schedule_ms", "ms", "lower", "query_p50_ms on job_plan; none on tpch_exec"),
    PerLayer("core.safe_order_check_ms", "ms", "lower", "none (not on the default path); evidence for ROADMAP item 5"),
    PerLayer("core.relations", "count", "lower", "work count (exact)"),
    PerLayer("core.edges", "count", "lower", "work count (exact)"),
    # optimizer: Database.optimizer_plan
    PerLayer("optimizer.plan_ms", "ms", "lower",
             "queries_per_s, query_p90_ms on job_plan; cold_sweep_s on serve_mixed; none on job_random_orders"),
    PerLayer("optimizer.plan_ms_max", "ms", "lower", "query_p90_ms on job_plan"),
    PerLayer("optimizer.share", "ratio", "lower", "share of untraced op wall spent in optimizer_plan"),
    # plan: compile_execution
    PerLayer("plan.compile_ms", "ms", "lower", "query_p50_ms on job_plan"),
    PerLayer("plan.ops", "count", "lower", "work count (exact)"),
    # bloom: BloomFilter over 1 M seeded keys
    PerLayer("bloom.insert_mkeys_per_s", "Mkeys/s", "higher",
             "queries_per_s on tpch_exec, worst_order_ms on job_random_orders; none on job_plan"),
    PerLayer("bloom.probe_mkeys_per_s", "Mkeys/s", "higher",
             "queries_per_s on tpch_exec, worst_order_ms on job_random_orders; none on job_plan"),
    PerLayer("bloom.fpr_observed", "ratio", "lower", "transfer yield: false positives survive into the join phase"),
    # exec kernels: HashIndex, match_keys, semi_join_mask
    PerLayer("exec.hash_build_mkeys_per_s", "Mkeys/s", "higher", "query_p90_ms on tpch_exec, job_random_orders"),
    PerLayer("exec.hash_probe_mkeys_per_s", "Mkeys/s", "higher", "query_p90_ms on tpch_exec, job_random_orders"),
    PerLayer("exec.semi_join_mkeys_per_s", "Mkeys/s", "higher", "queries_per_s on tpch_exec (yannakakis mode)"),
    # exec: Database.execute(plan=...) from outside, phases/ops from the engine's span tree
    PerLayer("exec.execute_ms", "ms", "lower", "queries_per_s on tpch_exec, job_random_orders"),
    PerLayer("exec.plan_phase_ms", "ms", "lower", "query_p50_ms on job_plan (execute repeats its own prepare)"),
    PerLayer("exec.scan_filter_ms", "ms", "lower", "queries_per_s on tpch_exec"),
    PerLayer("exec.transfer_ms", "ms", "lower", "queries_per_s on tpch_exec; worst_order_ms on job_random_orders"),
    PerLayer("exec.join_ms", "ms", "lower", "query_p90_ms on tpch_exec, job_random_orders"),
    PerLayer("exec.aggregate_ms", "ms", "lower", "queries_per_s on tpch_exec"),
    PerLayer("exec.op.bloom_build_ms", "ms", "lower", "exec.transfer_ms"),
    PerLayer("exec.op.bloom_probe_ms", "ms", "lower", "exec.transfer_ms"),
    PerLayer("exec.op.hash_build_ms", "ms", "lower", "exec.join_ms"),
    PerLayer("exec.op.hash_probe_ms", "ms", "lower", "exec.join_ms"),
    PerLayer("exec.op.semi_join_ms", "ms", "lower", "exec.transfer_ms (yannakakis mode)"),
    PerLayer("exec.tuples_processed", "count", "lower", "work count (exact)"),
    PerLayer("exec.intermediate_rows", "count", "lower", "work count (exact)"),
    PerLayer("exec.transfer_rows_eliminated", "count", "higher", "work count (exact)"),
    PerLayer("exec.transfer_yield", "ratio", "higher", "rows eliminated / rows probed in the transfer phase"),
    # exec backends: one RPT sweep of tpch_exec per backend, nproc workers
    PerLayer("exec.backend.serial_s", "s", "lower", "none today (default backend); evidence for ROADMAP items 0 and 2"),
    PerLayer("exec.backend.chunked_s", "s", "lower", "none today; evidence for ROADMAP items 0 and 2"),
    PerLayer("exec.backend.parallel_s", "s", "lower", "none today; evidence for ROADMAP items 0 and 2"),
    PerLayer("exec.backend.process_s", "s", "lower", "none today; evidence for ROADMAP items 0 and 2"),
    # engine: facade, sessions, plan cache, admission
    PerLayer("engine.facade_self_ms", "ms", "lower", "query_p50_ms on job_plan, serve_mixed"),
    PerLayer("engine.session_overhead_ms", "ms", "lower", "queries_per_s, query_p90_ms on serve_mixed"),
    PerLayer("engine.plan_cache_hit_rate", "ratio", "higher", "queries_per_s on serve_mixed"),
    PerLayer("engine.plan_cache_invalidations", "count", "lower", "query_p90_ms on serve_mixed"),
    PerLayer("engine.admission_wait_ms", "ms", "lower", "query_p90_ms on serve_mixed"),
    PerLayer("engine.rejected", "count", "lower", "failed ops on serve_mixed"),
    PerLayer("engine.replay_ratio", "ratio", "lower", "staged replay wall / untraced op wall (> 1: execute repeats its prepare)"),
    # storage + workloads
    PerLayer("storage.register_ms", "ms", "lower", "setup_s"),
    PerLayer("storage.replace_ms", "ms", "lower", "query_p90_ms on serve_mixed"),
    PerLayer("storage.snapshot_ms", "ms", "lower", "query_p50_ms on serve_mixed"),
    PerLayer("storage.bytes_resident", "B", "lower", "peak_rss_mb"),
    PerLayer("workloads.generate_s", "s", "lower", "setup_s"),
    # obs
    PerLayer("obs.trace_overhead_share", "ratio", "lower", "none: end-to-end numbers come from tracing-off rounds"),
    # paper: wall-clock robustness, reported against the paper's 1.6x / 1.5x, never gated
    PerLayer("paper.rf_rpt_max", "ratio", "lower", "reported, not gated (paper: <= 1.6)"),
    PerLayer("paper.rf_rpt_geomean", "ratio", "lower", "reported, not gated"),
    PerLayer("paper.rf_baseline_max", "ratio", "lower", "reported, not gated"),
    PerLayer("paper.rf_baseline_geomean", "ratio", "lower", "reported, not gated"),
    PerLayer("paper.rpt_speedup_geomean", "ratio", "higher", "reported, not gated (paper: 1.5 end to end)"),
    PerLayer("paper.rf_rpt_tuples_max", "ratio", "lower", "deterministic count ratio"),
    PerLayer("paper.rf_baseline_tuples_max", "ratio", "lower", "deterministic count ratio"),
]

PER_LAYER_UNITS: Dict[str, str] = {metric.name: metric.unit for metric in PER_LAYER}
END_TO_END_UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END}


def benchmark_json(workloads: List[Dict[str, str]], run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": workloads,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
