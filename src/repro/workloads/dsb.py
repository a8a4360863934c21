"""DSB workload: the skewed decision-support benchmark built on TPC-DS.

DSB (Ding et al., VLDB 2021) keeps the TPC-DS schema but regenerates the
data with skewed value distributions and adds query templates with harder
predicates, specifically to stress cardinality estimation.  The paper uses
it as a fourth benchmark in its speedup tables (Table 3 / Figure 20) and in
the appendix robustness plots.

The reproduction models DSB as the TPC-DS schema loaded with Zipf-skewed
foreign keys (``skew=0.8``) plus the same query text (the checked-in
``sql/tpcds_q<N>.sql`` files) — the join graphs are identical between TPC-DS
and DSB; only the data distribution changes, which is exactly the aspect the
skewed generator reproduces.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.engine.database import Database
from repro.query import QuerySpec
from repro.workloads import tpcds

#: Default Zipf exponent used for DSB's skewed foreign keys.
DEFAULT_SKEW = 0.8


def load(
    db: Database,
    scale: float = 1.0,
    seed: int = 23,
    skew: float = DEFAULT_SKEW,
    replace: bool = False,
) -> Dict[str, int]:
    """Generate and register the DSB (skewed TPC-DS) tables."""
    return tpcds.load(db, scale=scale, seed=seed, skew=skew, replace=replace)


def query(number: int) -> QuerySpec:
    """Return the DSB variant of query ``number`` (the TPC-DS text under a ``dsb_`` name)."""
    base = tpcds.query(number)
    return dataclasses.replace(base, name=base.name.replace("tpcds_", "dsb_"))


def all_queries() -> Dict[str, QuerySpec]:
    """All DSB queries, keyed by name."""
    return {f"q{n}": query(n) for n in tpcds.query_numbers()}


def query_numbers() -> tuple[int, ...]:
    """All reproduced DSB query numbers."""
    return tpcds.query_numbers()


#: Cyclic queries (same join structures as TPC-DS).
CYCLIC_QUERIES = tpcds.CYCLIC_QUERIES
