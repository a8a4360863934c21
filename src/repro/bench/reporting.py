"""Report printers: render experiment results in the shape of the paper's tables.

Every printer returns a plain string (and optionally prints it), so the
benchmark files can ``print`` the same rows the paper reports and the tests
can assert on their structure.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from repro.core.robustness import BenchmarkRobustnessSummary, RobustnessFactor
from repro.engine.database import render_op_trace
from repro.engine.modes import ExecutionMode


def format_robustness_table(
    title: str,
    rows: Mapping[str, Mapping[ExecutionMode, BenchmarkRobustnessSummary]],
    modes: Sequence[ExecutionMode],
) -> str:
    """Render a Table 1 / Table 2 style robustness-factor table.

    ``rows`` maps benchmark name -> (mode -> summary).
    """
    header_cells = ["RF".ljust(12)]
    for benchmark in rows:
        header_cells.append(f"{benchmark:^24}")
    sub_cells = ["".ljust(12)]
    for _ in rows:
        sub_cells.append(f"{'Avg':>7} {'Min':>7} {'Max':>8}")
    lines = [title, " ".join(header_cells), " ".join(sub_cells)]
    for mode in modes:
        cells = [mode.label.ljust(12)]
        for benchmark, summaries in rows.items():
            summary = summaries[mode]
            cells.append(f"{summary.avg_rf:>7.1f} {summary.min_rf:>7.1f} {summary.max_rf:>8.1f}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def format_speedup_table(
    title: str,
    rows: Mapping[str, Mapping[ExecutionMode, float]],
    modes: Sequence[ExecutionMode],
    baseline: ExecutionMode = ExecutionMode.BASELINE,
) -> str:
    """Render a Table 3 style speedup table (benchmark columns, mode rows)."""
    benchmarks = list(rows)
    lines = [title, "Speedup".ljust(12) + " ".join(f"{b:>10}" for b in benchmarks)]
    for mode in modes:
        if mode is baseline:
            continue
        cells = [mode.label.ljust(12)]
        for benchmark in benchmarks:
            cells.append(f"{rows[benchmark].get(mode, float('nan')):>9.2f}x")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def format_distribution_series(
    title: str,
    per_query: Mapping[str, Mapping[str, Sequence[float]]],
) -> str:
    """Render Figure 6/7 style per-query distributions of normalized costs.

    ``per_query`` maps query name -> (mode label -> normalized costs).  For
    each series the min / median / max are printed, which is the information
    the paper's box plots convey.
    """
    lines = [title, f"{'query':<14} {'mode':<12} {'min':>9} {'median':>9} {'max':>9} {'n':>5}"]
    for query_name, series in per_query.items():
        for mode_label, values in series.items():
            ordered = sorted(values)
            if not ordered:
                continue
            n = len(ordered)
            median = ordered[n // 2] if n % 2 == 1 else 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
            lines.append(
                f"{query_name:<14} {mode_label:<12} {ordered[0]:>9.3f} {median:>9.3f} {ordered[-1]:>9.3f} {n:>5}"
            )
    return "\n".join(lines)


def format_robustness_factors(title: str, factors: Iterable[RobustnessFactor]) -> str:
    """Render a list of per-query robustness factors."""
    lines = [title, f"{'query':<18} {'mode':<12} {'RF':>8} {'min':>12} {'max':>12}"]
    for factor in factors:
        lines.append(
            f"{factor.query_name:<18} {factor.mode:<12} {factor.factor:>8.2f} "
            f"{factor.min_cost:>12.3g} {factor.max_cost:>12.3g}"
        )
    return "\n".join(lines)


def format_case_study(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
) -> str:
    """Render the Figure 11 case-study table (plan -> {metric -> value})."""
    metrics: list[str] = []
    for values in rows.values():
        for metric in values:
            if metric not in metrics:
                metrics.append(metric)
    lines = [title, f"{'plan':<28} " + " ".join(f"{m:>20}" for m in metrics)]
    for plan_name, values in rows.items():
        lines.append(
            f"{plan_name:<28} " + " ".join(f"{values.get(m, float('nan')):>20.1f}" for m in metrics)
        )
    return "\n".join(lines)


def format_op_traces(results: Mapping[ExecutionMode, "object"]) -> str:
    """Render the uniform per-op traces of one query executed under many modes.

    ``results`` maps each mode to its :class:`~repro.engine.database.QueryResult`
    (as produced by :func:`repro.bench.harness.run_uniform_trace`).  All
    modes share the same op vocabulary, so the traces line up row for row.
    """
    return "\n\n".join(render_op_trace(mode, result.stats) for mode, result in results.items())


def print_report(report: str) -> str:
    """Print a report and return it (convenience for benchmark files)."""
    print()
    print(report)
    return report
