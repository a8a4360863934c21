"""repro — reproduction of "Debunking the Myth of Join Ordering: Toward Robust SQL Analytics".

The package implements Robust Predicate Transfer (RPT) and every substrate
it needs — a vectorized columnar engine, Bloom filters, a cost-based
optimizer, benchmark workload generators, and a benchmark harness — in pure
Python/NumPy.

Quickstart::

    from repro import Database, ExecutionMode
    from repro.workloads import tpch

    db = Database()
    tpch.load(db, scale=0.01, seed=42)
    query = tpch.query(5)
    result = db.execute(query, mode=ExecutionMode.RPT)
    print(result.aggregates, result.stats.summary())
"""

def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap / trim thresholds at 32 / 64 MiB (its own after one 32 MiB free).

    Left dynamic, they follow the largest block freed so far (say, by a table load), and
    with them whether queries reuse heap for multi-MB temporaries or mmap and fault them anew.
    No-op without glibc."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

from repro.engine.database import (
    Database,
    ExecutionOptions,
    ExplainAnalyzeResult,
    ExplainResult,
    QueryResult,
)
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.engine.server import Server, ServerConfig, ServerStats
from repro.engine.session import Session
from repro.errors import AdmissionRejected, SqlError
from repro.plan.physical import PhysicalPlan
from repro.query import (
    AggregateSpec,
    JoinCondition,
    PostJoinPredicate,
    QualifiedComparison,
    QuerySpec,
    RelationRef,
    count_star,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionRejected",
    "AggregateSpec",
    "Database",
    "ExecutionConfig",
    "ExecutionMode",
    "ExecutionOptions",
    "ExplainAnalyzeResult",
    "ExplainResult",
    "JoinCondition",
    "PhysicalPlan",
    "PostJoinPredicate",
    "QualifiedComparison",
    "QueryResult",
    "QuerySpec",
    "RelationRef",
    "Server",
    "ServerConfig",
    "ServerStats",
    "Session",
    "SqlError",
    "count_star",
    "__version__",
]
