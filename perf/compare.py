"""``run.py compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric: both medians, the ratio with its
base, and a verdict.  ``unresolved`` means the run-to-run spread (distance
between the quartiles as a share of the median) on either side is wider
than the metric's bound, so the two medians cannot be told apart at that
bound — it is never reported as ``same``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from perf.catalog import END_TO_END
from perf.measure import quartiles, relative_spread


def verdict(a: Mapping[str, float], b: Mapping[str, float], better: str, bound: float) -> str:
    """``a``/``b`` are quartile summaries (``q1``/``median``/``q3``)."""
    if max(relative_spread(a), relative_spread(b)) > bound:
        return "unresolved"
    if a["median"] == 0:
        return "same" if b["median"] == 0 else "unresolved"
    change = (b["median"] - a["median"]) / abs(a["median"])
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict) -> List[Dict[str, object]]:
    """Rows for every workload and end-to-end metric both documents hold."""
    rows: List[Dict[str, object]] = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for metric in END_TO_END:
            values_a = side_a["end_to_end"].get(metric.name, {}).get("values")
            values_b = side_b["end_to_end"].get(metric.name, {}).get("values")
            if not values_a or not values_b:
                continue
            summary_a, summary_b = quartiles(values_a), quartiles(values_b)
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "a": summary_a["median"],
                "b": summary_b["median"],
                "ratio": summary_b["median"] / summary_a["median"] if summary_a["median"] else None,
                "spread_a": relative_spread(summary_a),
                "spread_b": relative_spread(summary_b),
                "bound": metric.bound,
                "verdict": verdict(summary_a, summary_b, metric.better, metric.bound),
            })
        # failed_share has an absolute bound of 0: any new failure is worse.
        share_a, share_b = side_a["failed_share"], side_b["failed_share"]
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": share_a, "b": share_b, "ratio": None, "spread_a": 0.0, "spread_b": 0.0,
            "bound": 0.0,
            "verdict": "worse" if share_b > share_a else "better" if share_b < share_a else "same",
        })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    header = f"{'workload':<18} {'metric':<15} {'A':>12} {'B':>12} {'B/A':>7} {'spread A/B':>13} {'bound':>6}  verdict"
    lines = [header]
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<15} {row['a']:>12.4f} {row['b']:>12.4f} "
            f"{ratio:>7} {row['spread_a']:>6.3f}/{row['spread_b']:<6.3f} {row['bound']:>6.2f}  "
            f"{row['verdict']} ({row['unit']}, base A)"
        )
    return "\n".join(lines)
