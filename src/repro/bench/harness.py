"""Benchmark harness: shared machinery for regenerating the paper's tables and figures.

The harness keeps the experiment logic out of the pytest-benchmark files so
that the same code paths can be exercised by unit tests, the example
scripts, and the benchmark suite.  Its central pieces are:

* :class:`WorkloadContext` — loads and caches one database per workload at a
  chosen scale so repeated experiments do not regenerate data;
* :func:`run_random_plan_experiment` — the Figure 6/7 style sweep: execute a
  query under many random join orders for several execution modes and
  collect per-plan costs;
* :func:`run_speedup_experiment` — the Table 3 / Figures 17-20 style
  comparison using the optimizer's plan for every mode;
* :func:`robustness_table` — aggregates per-query robustness factors into
  the Table 1 / Table 2 rows.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.robustness import (
    BenchmarkRobustnessSummary,
    RobustnessFactor,
    geometric_mean,
    robustness_factor,
    speedup,
    summarize_robustness,
)
from repro.engine.database import Database, ExecutionOptions, QueryResult
from repro.engine.modes import ExecutionMode
from repro.errors import BenchmarkError
from repro.optimizer.random_plans import (
    generate_bushy_plans,
    generate_left_deep_plans,
    paper_sample_size,
)
from repro.plan.join_plan import JoinPlan
from repro.query import QuerySpec
from repro.workloads import dsb, job, tpcds, tpch

#: Default cost metric for robustness experiments (deterministic at small scale).
DEFAULT_METRIC = "tuples"

#: Default workload scale for CI-sized experiment runs.
DEFAULT_SCALE = 0.15


@dataclass
class WorkloadContext:
    """Caches loaded benchmark databases so experiments can share them."""

    scale: float = DEFAULT_SCALE
    seed: int = 42
    _databases: Dict[str, Database] = field(default_factory=dict)

    _LOADERS: Dict[str, Callable] = field(
        default_factory=lambda: {
            "tpch": tpch.load,
            "job": job.load,
            "tpcds": tpcds.load,
            "dsb": dsb.load,
        }
    )

    def database(self, workload: str) -> Database:
        """Return (and lazily load) the database for ``workload``."""
        if workload not in self._LOADERS:
            raise BenchmarkError(f"unknown workload {workload!r}; expected one of {sorted(self._LOADERS)}")
        if workload not in self._databases:
            db = Database()
            self._LOADERS[workload](db, scale=self.scale, seed=self.seed)
            self._databases[workload] = db
        return self._databases[workload]

    def queries(self, workload: str) -> Dict[str, QuerySpec]:
        """All queries of a workload, keyed by short name."""
        module = {"tpch": tpch, "job": job, "tpcds": tpcds, "dsb": dsb}[workload]
        return module.all_queries()


@dataclass(frozen=True)
class PlanCost:
    """Cost of executing one plan of one query under one mode."""

    query_name: str
    mode: ExecutionMode
    plan: JoinPlan
    cost: float
    elapsed_seconds: float
    intermediate_rows: int
    output_rows: int
    abstract_cost: float = 0.0
    #: Wall seconds per physical-op kind — the uniform per-op breakdown every
    #: mode reports now that all modes execute through the PhysicalPlan path.
    op_seconds: Mapping[str, float] = field(default_factory=dict)


@dataclass
class RandomPlanExperiment:
    """Results of a random-join-order sweep for one query."""

    query_name: str
    plan_type: str
    costs: Dict[ExecutionMode, List[PlanCost]] = field(default_factory=dict)

    def robustness(self, mode: ExecutionMode, metric: str = DEFAULT_METRIC) -> RobustnessFactor:
        """Robustness factor for one mode (over the chosen metric)."""
        entries = self.costs.get(mode, [])
        if not entries:
            raise BenchmarkError(f"no plans were executed for mode {mode}")
        values = [_metric_value(entry, metric) for entry in entries]
        return robustness_factor(self.query_name, mode.value, values)

    def normalized_costs(self, mode: ExecutionMode, baseline_cost: float, metric: str = DEFAULT_METRIC) -> List[float]:
        """Per-plan costs normalized by a baseline value (Figure 6/7 y-axis)."""
        if baseline_cost <= 0:
            raise BenchmarkError("baseline cost must be positive for normalization")
        return [_metric_value(e, metric) / baseline_cost for e in self.costs.get(mode, [])]


def _metric_value(entry: PlanCost, metric: str) -> float:
    if metric == "time":
        return entry.elapsed_seconds
    if metric == "intermediate":
        return float(entry.intermediate_rows)
    if metric == "tuples":
        return entry.cost
    if metric == "abstract":
        return entry.abstract_cost
    raise BenchmarkError(f"unknown metric {metric!r}")


def run_random_plan_experiment(
    db: Database,
    query: QuerySpec,
    modes: Sequence[ExecutionMode] = (ExecutionMode.BASELINE, ExecutionMode.RPT),
    num_plans: Optional[int] = None,
    plan_type: str = "left_deep",
    seed: int = 0,
    options: Optional[ExecutionOptions] = None,
    max_plans: int = 40,
) -> RandomPlanExperiment:
    """Execute ``query`` under random join orders for each mode.

    ``num_plans`` defaults to the paper's ``70·m − 190`` rule capped at
    ``max_plans`` (the paper uses up to 1000 plans per query on a 2×48-core
    server; the cap keeps the pure-Python sweep tractable while still
    sampling the plan space broadly).
    """
    graph = db.join_graph(query)
    if num_plans is None:
        num_plans = min(paper_sample_size(query.num_joins), max_plans)
    if plan_type == "left_deep":
        plans = generate_left_deep_plans(graph, num_plans, seed=seed)
    elif plan_type == "bushy":
        plans = generate_bushy_plans(graph, num_plans, seed=seed)
    else:
        raise BenchmarkError(f"unknown plan type {plan_type!r}")

    experiment = RandomPlanExperiment(query_name=query.name, plan_type=plan_type)
    for mode in modes:
        entries: List[PlanCost] = []
        for plan in plans:
            result = db.execute(query, mode=mode, plan=plan, options=options)
            entries.append(_plan_cost(query, mode, plan, result))
        experiment.costs[mode] = entries
    return experiment


def run_speedup_experiment(
    db: Database,
    queries: Mapping[str, QuerySpec],
    modes: Sequence[ExecutionMode] = (
        ExecutionMode.BASELINE,
        ExecutionMode.BLOOM_JOIN,
        ExecutionMode.PT,
        ExecutionMode.RPT,
    ),
    metric: str = DEFAULT_METRIC,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Dict[ExecutionMode, PlanCost]]:
    """Execute every query with the optimizer's plan under every mode.

    Returns per-query, per-mode costs; aggregate with :func:`average_speedups`.
    """
    results: Dict[str, Dict[ExecutionMode, PlanCost]] = {}
    for name, query in queries.items():
        plan = db.optimizer_plan(query, options)
        per_mode: Dict[ExecutionMode, PlanCost] = {}
        for mode in modes:
            result = db.execute(query, mode=mode, plan=plan, options=options)
            per_mode[mode] = _plan_cost(query, mode, plan, result)
        results[name] = per_mode
    return results


def average_speedups(
    results: Mapping[str, Mapping[ExecutionMode, PlanCost]],
    baseline: ExecutionMode = ExecutionMode.BASELINE,
    metric: str = DEFAULT_METRIC,
) -> Dict[ExecutionMode, float]:
    """Geometric-mean speedup of every mode over ``baseline`` (Table 3 rows)."""
    modes = {mode for per_mode in results.values() for mode in per_mode}
    speedups: Dict[ExecutionMode, List[float]] = {mode: [] for mode in modes}
    for per_mode in results.values():
        base = _metric_value(per_mode[baseline], metric)
        for mode, entry in per_mode.items():
            speedups[mode].append(speedup(base, _metric_value(entry, metric)))
    return {mode: geometric_mean(values) for mode, values in speedups.items() if values}


def robustness_table(
    experiments: Iterable[RandomPlanExperiment],
    benchmark: str,
    modes: Sequence[ExecutionMode],
    metric: str = DEFAULT_METRIC,
    exclude_queries: Sequence[str] = (),
) -> Dict[ExecutionMode, BenchmarkRobustnessSummary]:
    """Aggregate per-query robustness factors into Table 1 / Table 2 rows."""
    experiments = [e for e in experiments if e.query_name not in set(exclude_queries)]
    if not experiments:
        raise BenchmarkError("no experiments supplied to robustness_table")
    table: Dict[ExecutionMode, BenchmarkRobustnessSummary] = {}
    for mode in modes:
        factors = [e.robustness(mode, metric) for e in experiments]
        table[mode] = summarize_robustness(benchmark, mode.value, factors)
    return table


def run_uniform_trace(
    db: Database,
    query: QuerySpec,
    modes: Sequence[ExecutionMode] = tuple(ExecutionMode),
    plan: Optional[JoinPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[ExecutionMode, QueryResult]:
    """Execute one query under every mode and return the per-mode results.

    Because every mode compiles to the same PhysicalPlan op vocabulary, the
    returned results carry directly comparable per-op traces
    (``result.stats.op_trace()`` / ``result.stats.op_seconds_by_kind()``).
    Render them with :func:`repro.bench.reporting.format_op_traces`.
    """
    if plan is None:
        plan = db.optimizer_plan(query, options)
    return {mode: db.execute(query, mode=mode, plan=plan, options=options) for mode in modes}


def run_sql_trace(
    db: Database,
    text: str,
    modes: Sequence[ExecutionMode] = tuple(ExecutionMode),
    plan: Optional[JoinPlan] = None,
    options: Optional[ExecutionOptions] = None,
    name: Optional[str] = None,
) -> Dict[ExecutionMode, QueryResult]:
    """SQL-text twin of :func:`run_uniform_trace`.

    Compiles ``text`` once through the SQL front end (so every mode runs the
    same lowered :class:`~repro.query.QuerySpec` and, by default, the same
    optimizer plan) and executes it under every mode.
    """
    from repro.sql import compile_statement

    compiled = compile_statement(text, db.catalog, name=name)
    if compiled.explain:
        raise BenchmarkError(
            "run_sql_trace executes its statement under every mode; strip the "
            "EXPLAIN prefix, or use Database.explain_sql for planning only"
        )
    return run_uniform_trace(db, compiled.query, modes=modes, plan=plan, options=options)


def write_bench_json(
    path: Union[str, Path],
    name: str,
    measurements: Sequence[Mapping[str, Any]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Persist one benchmark run as a ``BENCH_*.json`` record.

    One schema for every record (``BENCH_micro.json``, ``BENCH_serving.json``):
    ``{name, environment, metadata, measurements}``, where the environment
    says what the numbers were measured on — Python, machine, cores, NumPy
    version and the checkout's git sha.  Returns the written path.
    """
    path = Path(path)
    payload = {
        "name": name,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cores": os.cpu_count() or 1,
            "numpy": np.__version__,
            "git_sha": _git_sha(),
        },
        "metadata": dict(metadata or {}),
        "measurements": [dict(m) for m in measurements],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _git_sha() -> Optional[str]:
    """Short sha of the checkout this package runs from, ``-dirty`` when it
    has uncommitted changes (None outside git)."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _plan_cost(query: QuerySpec, mode: ExecutionMode, plan: JoinPlan, result: QueryResult) -> PlanCost:
    return PlanCost(
        query_name=query.name,
        mode=mode,
        plan=plan,
        cost=result.stats.cost(DEFAULT_METRIC),
        elapsed_seconds=result.stats.elapsed_seconds,
        intermediate_rows=result.stats.total_intermediate_rows,
        output_rows=result.stats.output_rows,
        abstract_cost=result.stats.cost("abstract"),
        op_seconds=result.stats.op_seconds_by_kind(),
    )
