"""Statistics the benchmark reports: percentiles, geomean, quartile spread.

Pure functions over lists of floats — no engine imports, so the self-tests
(`pytest perf/`) exercise them without building a database.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Mapping, Sequence

#: A percentile is *supported* by a sample when at least this many
#: observations lie beyond it (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation between ranks)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` observations lie above the ``pct``-th percentile."""
    return int(math.floor(count * (100.0 - pct) / 100.0 + 1e-9))


def percentile_supported(count: int, pct: float) -> bool:
    return samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``{"q1", "median", "q3", "n"}`` — quartiles as ``statistics.quantiles``
    gives them (the same rule the acceptance check uses); a single
    observation is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "n": len(values),
    }


def relative_spread(summary: Mapping[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(median)


def values_agree(a: float, b: float, rel: float = 1e-9) -> bool:
    """COUNT-like (integral) values must be equal; SUM/AVG-like values may
    differ by ``rel`` relative (summation order differs across plans)."""
    if a == b:
        return True
    if float(a).is_integer() and float(b).is_integer():
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def aggregates_agree(
    a: Mapping[str, float], b: Mapping[str, float], rel: float = 1e-9
) -> bool:
    """Two aggregate rows agree: same names, values per :func:`values_agree`."""
    return a.keys() == b.keys() and all(values_agree(a[k], b[k], rel) for k in a)
