"""Tests for the benchmark harness, report printers, microbenchmarks, and the
simulated parallel model."""

from __future__ import annotations

import json
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro import Database, ExecutionMode
from repro.bench import (
    CASES,
    WorkloadContext,
    average_speedups,
    format_case,
    format_case_study,
    format_distribution_series,
    format_robustness_factors,
    format_robustness_table,
    format_speedup_table,
    robustness_table,
    run_case,
    run_random_plan_experiment,
    run_speedup_experiment,
    write_bench_json,
)
from repro.bench.microbench import Case, Gate, _judge
from repro.bench.simulation import ParallelismModel, simulate_parallel_cost
from repro.core import robustness_factor
from repro.errors import BenchmarkError
from repro.workloads import synthetic, tpch


@pytest.fixture(scope="module")
def tpch_small() -> Database:
    db = Database()
    tpch.load(db, scale=0.05, seed=3)
    return db


class TestHarness:
    def test_random_plan_experiment(self, tpch_small):
        query = tpch.query(10)
        experiment = run_random_plan_experiment(
            tpch_small, query,
            modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
            num_plans=5, seed=1,
        )
        assert set(experiment.costs) == {ExecutionMode.BASELINE, ExecutionMode.RPT}
        assert len(experiment.costs[ExecutionMode.RPT]) == 5
        rf_base = experiment.robustness(ExecutionMode.BASELINE)
        rf_rpt = experiment.robustness(ExecutionMode.RPT)
        assert rf_base.factor >= 1.0 and rf_rpt.factor >= 1.0

    def test_random_plan_experiment_bushy(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.RPT,), num_plans=4,
            plan_type="bushy", seed=2,
        )
        assert len(experiment.costs[ExecutionMode.RPT]) == 4

    def test_invalid_plan_type(self, tpch_small):
        with pytest.raises(BenchmarkError):
            run_random_plan_experiment(tpch_small, tpch.query(3), plan_type="zigzag", num_plans=2)

    def test_normalized_costs(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.RPT,), num_plans=3, seed=0
        )
        normalized = experiment.normalized_costs(ExecutionMode.RPT, baseline_cost=100.0)
        assert len(normalized) == 3
        with pytest.raises(BenchmarkError):
            experiment.normalized_costs(ExecutionMode.RPT, baseline_cost=0.0)

    def test_speedup_experiment_and_table(self, tpch_small):
        queries = {f"q{n}": tpch.query(n) for n in (3, 10, 11)}
        results = run_speedup_experiment(tpch_small, queries)
        assert set(results) == set(queries)
        speedups = average_speedups(results)
        assert speedups[ExecutionMode.BASELINE] == pytest.approx(1.0)
        assert all(v > 0 for v in speedups.values())

    def test_robustness_table_and_exclusions(self, tpch_small):
        experiments = [
            run_random_plan_experiment(
                tpch_small, tpch.query(n), modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
                num_plans=4, seed=n,
            )
            for n in (3, 10)
        ]
        table = robustness_table(experiments, "TPC-H", (ExecutionMode.BASELINE, ExecutionMode.RPT))
        assert table[ExecutionMode.RPT].num_queries == 2
        with pytest.raises(BenchmarkError):
            robustness_table(experiments, "TPC-H", (ExecutionMode.RPT,),
                             exclude_queries=[e.query_name for e in experiments])

    def test_workload_context_caches(self):
        context = WorkloadContext(scale=0.05)
        db1 = context.database("tpch")
        db2 = context.database("tpch")
        assert db1 is db2
        assert len(context.queries("tpch")) == 20
        with pytest.raises(BenchmarkError):
            context.database("unknown")


class TestReporting:
    def test_robustness_table_format(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
            num_plans=3, seed=0,
        )
        table = robustness_table([experiment], "TPC-H", (ExecutionMode.BASELINE, ExecutionMode.RPT))
        text = format_robustness_table("Table 1", {"TPC-H": table},
                                       (ExecutionMode.BASELINE, ExecutionMode.RPT))
        assert "Table 1" in text and "DuckDB" in text and "RPT" in text

    def test_speedup_table_format(self):
        rows = {"TPC-H": {ExecutionMode.RPT: 1.5, ExecutionMode.PT: 1.4, ExecutionMode.BASELINE: 1.0}}
        text = format_speedup_table("Table 3", rows, (ExecutionMode.BASELINE, ExecutionMode.PT, ExecutionMode.RPT))
        assert "1.50x" in text and "RPT" in text

    def test_distribution_series_format(self):
        text = format_distribution_series("Fig 6", {"q3": {"DuckDB": [1.0, 2.0, 3.0], "RPT": [0.5, 0.6]}})
        assert "q3" in text and "DuckDB" in text

    def test_robustness_factors_format(self):
        text = format_robustness_factors("factors", [robustness_factor("q1", "rpt", [1.0, 1.2])])
        assert "q1" in text

    def test_case_study_format(self):
        text = format_case_study("Fig 11", {"best": {"intermediate": 10.0}, "worst": {"intermediate": 100.0}})
        assert "Fig 11" in text and "worst" in text


class TestMicrobenchmark:
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_every_case_runs_small(self, case, tmp_path):
        """Each row of the case table runs at its smoke size, holds its exact
        counter checks, prints, and round-trips the one BENCH record schema."""
        record = run_case(case, repeats=2, **case.small)
        assert record["case"] == case.name and record["repeats"] == 2
        assert all(record["checks"].values()), record["checks"]
        assert len(record["gates"]) == len(case.gates)
        assert set(record["ratios"]) == set(case.ratios)
        table = format_case(record)
        for label, summary in record["variants"].items():
            assert label in table
            assert len(summary["samples"]) == 2
            assert 0 < summary["min"] <= summary["median"] and summary["spread"] >= 0

        path = write_bench_json(tmp_path / "BENCH_micro.json", name="micro", measurements=[record])
        payload = json.loads(path.read_text())
        assert set(payload) == {"name", "environment", "metadata", "measurements"}
        assert set(payload["environment"]) == {"python", "machine", "cores", "numpy", "git_sha"}
        assert payload["environment"]["cores"] >= 1
        (stored,) = payload["measurements"]
        assert stored["variants"] == record["variants"] and stored["counters"] == record["counters"]
        assert set(stored) == {
            "case", "title", "sizes", "timed", "repeats",
            "variants", "counters", "ratios", "gates", "checks",
        }

    def test_variants_interleave_and_reverse_each_repeat(self):
        calls = []
        case = Case(
            name="order", title="", sizes={}, small={},
            setup=lambda: nullcontext({l: lambda l=l: calls.append(l) for l in "ab"}),
        )
        run_case(case, repeats=3)
        assert "".join(calls) == "ab" + "ab" + "ba" + "ab"  # warm-up pass, then 3 repeats

    def test_diverging_aggregates_raise(self):
        answers = iter([{"n": 1}, {"n": 2}] * 2)
        thunk = lambda: SimpleNamespace(aggregates=next(answers))  # noqa: E731
        case = Case(
            name="diverge", title="", sizes={}, small={},
            setup=lambda: nullcontext({"a": thunk, "b": thunk}),
        )
        with pytest.raises(BenchmarkError, match="diverged"):
            run_case(case, repeats=1)

    @pytest.mark.parametrize(
        "variant, base, gate, status",
        [
            ((1.00, 0.01), (1.00, 0.01), Gate("v", "b", 1.02, slack=0.010, overhead=True), "pass"),
            # 5% over a 2% gate, but the two spreads cover the 30 ms violation.
            ((1.05, 0.02), (1.00, 0.02), Gate("v", "b", 1.02, overhead=True), "unresolved"),
            ((1.05, 0.01), (1.00, 0.01), Gate("v", "b", 1.02, overhead=True), "fail"),
            # "Overhead" of -10% against a 2% gate: noise, not a pass.
            ((0.90, 0.0), (1.00, 0.0), Gate("v", "b", 1.02, slack=0.010, overhead=True), "unresolved"),
            # A speedup gate may be beaten by any margin.
            ((0.10, 0.0), (1.00, 0.0), Gate("v", "b", 1 / 1.5), "pass"),
            ((0.90, 0.0), (1.00, 0.0), Gate("v", "b", 1 / 1.5), "fail"),
        ],
    )
    def test_gates_are_judged_against_the_recorded_noise(self, variant, base, gate, status):
        summaries = {
            "v": {"median": variant[0], "spread": variant[1]},
            "b": {"median": base[0], "spread": base[1]},
        }
        assert _judge(gate, summaries)["status"] == status

    def test_starred_label_is_the_fastest_of_its_group(self):
        summaries = {
            "threads_1": {"median": 3.0, "spread": 0.0},
            "threads_2": {"median": 2.0, "spread": 0.0},
            "serial": {"median": 1.0, "spread": 0.0},
        }
        verdict = _judge(Gate("serial", "threads_*", 1.0), summaries)
        assert (verdict["measured"], verdict["allowed"]) == (1.0, 2.0)


class TestParallelSimulation:
    def test_more_threads_never_slower(self, tpch_small):
        result = tpch_small.execute(tpch.query(10), mode=ExecutionMode.RPT)
        one = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=1))
        many = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=32))
        assert many <= one

    def test_small_probe_sides_limit_scaling(self):
        """A tiny query cannot use 32 threads: speedup is far below 32x."""
        instance = synthetic.figure2_instance(base_size=50)
        result = instance.database.execute(instance.query, mode=ExecutionMode.RPT)
        one = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=1, pipeline_overhead=0.0))
        many = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=32, pipeline_overhead=0.0))
        assert one / max(many, 1e-9) < 32.0

    def test_baseline_variance_grows_with_threads(self, tpch_small):
        """Figure 14's observation also holds in the model: parallel costs still differ across plans."""
        from repro.optimizer import generate_left_deep_plans

        query = tpch.query(10)
        graph = tpch_small.join_graph(query)
        plans = generate_left_deep_plans(graph, 6, seed=4)
        costs = [
            simulate_parallel_cost(
                tpch_small.execute(query, mode=ExecutionMode.BASELINE, plan=p).stats,
                ParallelismModel(num_threads=32),
            )
            for p in plans
        ]
        assert max(costs) > min(costs)


class TestSyntheticInstances:
    def test_figure2_rpt_reduces_more_than_pt(self):
        instance = synthetic.figure2_instance(base_size=120)
        db, query = instance.database, instance.query
        pt = db.execute(query, mode=ExecutionMode.PT)
        rpt = db.execute(query, mode=ExecutionMode.RPT)
        assert pt.aggregates == rpt.aggregates
        # RPT's full reduction shrinks T at least as much as PT's incomplete one.
        assert rpt.stats.reduced_rows["t"] <= pt.stats.reduced_rows["t"]

    def test_figure12_quadratic_blowup_only_without_rpt(self):
        instance = synthetic.figure12_instance(n=400)
        db, query = instance.database, instance.query
        from repro.plan.join_plan import JoinPlan

        bad_plan = JoinPlan.from_left_deep(("r", "s", "t"))
        baseline = db.execute(query, mode=ExecutionMode.BASELINE, plan=bad_plan)
        rpt = db.execute(query, mode=ExecutionMode.RPT, plan=bad_plan)
        assert baseline.stats.output_rows == 0 and rpt.stats.output_rows == 0
        assert baseline.stats.total_intermediate_rows >= (400 // 2) ** 2 // 2
        assert rpt.stats.total_intermediate_rows == 0

    def test_unsafe_subjoin_instance_classification(self):
        from repro.core import is_alpha_acyclic, is_gamma_acyclic, is_safe_join_order, unsafe_prefixes

        instance = synthetic.unsafe_subjoin_instance(n=100)
        graph = instance.database.join_graph(instance.query)
        assert is_alpha_acyclic(graph)
        assert not is_gamma_acyclic(graph)
        assert is_safe_join_order(graph, ("s", "r", "t"))
        assert not is_safe_join_order(graph, ("s", "t", "r"))
        assert unsafe_prefixes(graph, ("s", "t", "r")) == [frozenset({"s", "t"})]
