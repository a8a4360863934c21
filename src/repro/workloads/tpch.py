"""TPC-H workload: synthetic schema/data generator and the query lookup.

The generator reproduces the full eight-table TPC-H schema (region, nation,
supplier, customer, part, partsupp, orders, lineitem) with the standard
key/foreign-key relationships and fan-outs (4 lineitems per order, one
partsupp per (part, supplier) pair sampled, etc.), scaled down to a size a
pure-Python engine can execute thousands of times for the robustness sweeps.

The query set covers every TPC-H query with at least two joins — the same
set the paper evaluates (its Figure 6a shows Q2, 3, 5, 7, 8, 9, 10, 11, 18,
21; the appendix covers Q2–Q22 except the single-table Q1/Q6).  Each query
is defined by its checked-in ``sql/tpch_q<N>.sql`` file (:func:`query`
compiles it, see :mod:`repro.workloads.sqlfiles`), which mirrors the
original query's join graph and the selective filters that matter for join
ordering; aggregates are reduced to a ``COUNT(*)``-style measurement
(standard practice in join-ordering studies, where the aggregate does not
affect join work).

Notably, Q5 and Q21 contain the ``customer.nationkey = supplier.nationkey``
style edges that make them **cyclic** — the paper flags Q5 in red in its
robustness plots; the reproduction preserves that character.
"""

from __future__ import annotations

from typing import Dict

from repro.engine.database import Database
from repro.errors import WorkloadError
from repro.query import QuerySpec
from repro.storage.table import ForeignKey
from repro.workloads import sqlfiles
from repro.workloads.generator import (
    WorkloadScale,
    categorical_column,
    date_column,
    foreign_keys,
    names_column,
    numeric_column,
    primary_keys,
)

#: Base cardinalities at ``scale=1.0`` (≈ TPC-H SF 0.002, preserving ratios).
BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 100,
    "customer": 1_500,
    "part": 2_000,
    "partsupp": 8_000,
    "orders": 15_000,
    "lineitem": 60_000,
}

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_CONTAINERS = ["SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO PKG"]
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
_REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_RETURN_FLAGS = ["A", "N", "R"]


def load(db: Database, scale: float = 1.0, seed: int = 42, replace: bool = False) -> Dict[str, int]:
    """Generate and register the TPC-H tables.

    Returns a mapping of table name to generated row count.
    """
    ws = WorkloadScale(scale=scale, seed=seed)
    counts: Dict[str, int] = {name: ws.rows(base) for name, base in BASE_ROWS.items()}
    counts["region"] = 5
    counts["nation"] = 25

    # region ---------------------------------------------------------------
    db.register_dataframe(
        "region",
        {
            "r_regionkey": primary_keys(counts["region"]),
            "r_name": _REGION_NAMES[: counts["region"]],
        },
        primary_key=["r_regionkey"],
        replace=replace,
    )

    # nation ---------------------------------------------------------------
    rng = ws.rng("nation")
    db.register_dataframe(
        "nation",
        {
            "n_nationkey": primary_keys(counts["nation"]),
            "n_name": names_column("NATION", counts["nation"]),
            "n_regionkey": foreign_keys(rng, counts["nation"], counts["region"]),
        },
        primary_key=["n_nationkey"],
        foreign_keys=[ForeignKey("n_regionkey", "region", "r_regionkey")],
        replace=replace,
    )

    # supplier ---------------------------------------------------------------
    rng = ws.rng("supplier")
    db.register_dataframe(
        "supplier",
        {
            "s_suppkey": primary_keys(counts["supplier"]),
            "s_name": names_column("Supplier", counts["supplier"]),
            "s_nationkey": foreign_keys(rng, counts["supplier"], counts["nation"]),
            "s_acctbal": numeric_column(rng, counts["supplier"], -999.0, 9999.0),
            "s_comment_has_complaint": rng.integers(0, 2, counts["supplier"]),
        },
        primary_key=["s_suppkey"],
        foreign_keys=[ForeignKey("s_nationkey", "nation", "n_nationkey")],
        replace=replace,
    )

    # customer ---------------------------------------------------------------
    rng = ws.rng("customer")
    db.register_dataframe(
        "customer",
        {
            "c_custkey": primary_keys(counts["customer"]),
            "c_name": names_column("Customer", counts["customer"]),
            "c_nationkey": foreign_keys(rng, counts["customer"], counts["nation"]),
            "c_mktsegment": categorical_column(rng, counts["customer"], _SEGMENTS),
            "c_acctbal": numeric_column(rng, counts["customer"], -999.0, 9999.0),
        },
        primary_key=["c_custkey"],
        foreign_keys=[ForeignKey("c_nationkey", "nation", "n_nationkey")],
        replace=replace,
    )

    # part ---------------------------------------------------------------
    rng = ws.rng("part")
    db.register_dataframe(
        "part",
        {
            "p_partkey": primary_keys(counts["part"]),
            "p_name": names_column("part", counts["part"]),
            "p_brand": categorical_column(rng, counts["part"], _BRANDS),
            "p_type": categorical_column(rng, counts["part"], _TYPES),
            "p_size": numeric_column(rng, counts["part"], 1, 50, integer=True),
            "p_container": categorical_column(rng, counts["part"], _CONTAINERS),
            "p_retailprice": numeric_column(rng, counts["part"], 900.0, 2000.0),
        },
        primary_key=["p_partkey"],
        replace=replace,
    )

    # partsupp ---------------------------------------------------------------
    rng = ws.rng("partsupp")
    db.register_dataframe(
        "partsupp",
        {
            "ps_partkey": foreign_keys(rng, counts["partsupp"], counts["part"]),
            "ps_suppkey": foreign_keys(rng, counts["partsupp"], counts["supplier"]),
            "ps_availqty": numeric_column(rng, counts["partsupp"], 1, 9999, integer=True),
            "ps_supplycost": numeric_column(rng, counts["partsupp"], 1.0, 1000.0),
        },
        foreign_keys=[
            ForeignKey("ps_partkey", "part", "p_partkey"),
            ForeignKey("ps_suppkey", "supplier", "s_suppkey"),
        ],
        replace=replace,
    )

    # orders ---------------------------------------------------------------
    rng = ws.rng("orders")
    db.register_dataframe(
        "orders",
        {
            "o_orderkey": primary_keys(counts["orders"]),
            "o_custkey": foreign_keys(rng, counts["orders"], counts["customer"]),
            "o_orderstatus": categorical_column(rng, counts["orders"], ["F", "O", "P"], [0.49, 0.49, 0.02]),
            "o_orderdate": date_column(rng, counts["orders"]),
            "o_orderpriority": categorical_column(rng, counts["orders"], _PRIORITIES),
            "o_totalprice": numeric_column(rng, counts["orders"], 800.0, 500000.0),
        },
        primary_key=["o_orderkey"],
        foreign_keys=[ForeignKey("o_custkey", "customer", "c_custkey")],
        replace=replace,
    )

    # lineitem ---------------------------------------------------------------
    rng = ws.rng("lineitem")
    n_li = counts["lineitem"]
    db.register_dataframe(
        "lineitem",
        {
            "l_orderkey": foreign_keys(rng, n_li, counts["orders"]),
            "l_partkey": foreign_keys(rng, n_li, counts["part"]),
            "l_suppkey": foreign_keys(rng, n_li, counts["supplier"]),
            "l_quantity": numeric_column(rng, n_li, 1, 50, integer=True),
            "l_extendedprice": numeric_column(rng, n_li, 900.0, 100000.0),
            "l_discount": numeric_column(rng, n_li, 0.0, 0.1),
            "l_shipdate": date_column(rng, n_li),
            "l_commitdate": date_column(rng, n_li),
            "l_receiptdate": date_column(rng, n_li),
            "l_returnflag": categorical_column(rng, n_li, _RETURN_FLAGS),
            "l_shipmode": categorical_column(rng, n_li, _SHIPMODES),
        },
        foreign_keys=[
            ForeignKey("l_orderkey", "orders", "o_orderkey"),
            ForeignKey("l_partkey", "part", "p_partkey"),
            ForeignKey("l_suppkey", "supplier", "s_suppkey"),
        ],
        replace=replace,
    )
    return counts


# ---------------------------------------------------------------------------
# Query set (defined by the checked-in ``sql/tpch_q<N>.sql`` files)
# ---------------------------------------------------------------------------
#: The queries shown in Figure 6a (at least two joins, non-trivial ordering).
FIGURE6_QUERIES = (2, 3, 5, 7, 8, 9, 10, 11, 18, 21)

#: Queries the paper marks as cyclic in TPC-H.
CYCLIC_QUERIES = (5,)


def query(number: int) -> QuerySpec:
    """Return the join-structure QuerySpec for TPC-H query ``number``.

    Q1 and Q6 are excluded (single-table scans, no join ordering involved),
    matching the paper's evaluation.
    """
    try:
        return sqlfiles.query_spec(f"tpch_q{number}")
    except WorkloadError:
        raise WorkloadError(
            f"TPC-H Q{number} is not part of the workload (Q1/Q6 are single-table; "
            f"valid numbers: {list(query_numbers())})"
        ) from None


def all_queries() -> Dict[str, QuerySpec]:
    """All TPC-H queries of the workload, keyed by name."""
    return {f"q{n}": query(n) for n in query_numbers()}


def query_numbers() -> tuple[int, ...]:
    """All available query numbers."""
    return tuple(sqlfiles.numbered_stems("tpch"))
