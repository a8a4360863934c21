"""TPC-H workload: synthetic schema/data generator and the query join structures.

The generator reproduces the full eight-table TPC-H schema (region, nation,
supplier, customer, part, partsupp, orders, lineitem) with the standard
key/foreign-key relationships and fan-outs (4 lineitems per order, one
partsupp per (part, supplier) pair sampled, etc.), scaled down to a size a
pure-Python engine can execute thousands of times for the robustness sweeps.

The query set covers every TPC-H query with at least two joins — the same
set the paper evaluates (its Figure 6a shows Q2, 3, 5, 7, 8, 9, 10, 11, 18,
21; the appendix covers Q2–Q22 except the single-table Q1/Q6).  Each
:class:`~repro.query.QuerySpec` mirrors the original query's join graph and
the selective filters that matter for join ordering; aggregates are reduced
to a ``COUNT(*)``-style measurement (standard practice in join-ordering
studies, where the aggregate does not affect join work).

Notably, Q5 and Q21 contain the ``customer.nationkey = supplier.nationkey``
style edges that make them **cyclic** — the paper flags Q5 in red in its
robustness plots; the reproduction preserves that character.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.database import Database
from repro.errors import WorkloadError
from repro.expr import between, eq, ge, gt, isin, le, lt, starts_with
from repro.query import JoinCondition, QuerySpec, RelationRef
from repro.storage.table import ForeignKey
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
# Query set
# ---------------------------------------------------------------------------
def _q2() -> QuerySpec:
    """Q2: part / partsupp / supplier / nation / region (minimum-cost supplier)."""
    return QuerySpec(
        name="tpch_q2",
        relations=(
            RelationRef("p", "part", eq("p_size", 15) | eq("p_size", 23)),
            RelationRef("ps", "partsupp"),
            RelationRef("s", "supplier"),
            RelationRef("n", "nation"),
            RelationRef("r", "region", eq("r_name", "EUROPE")),
        ),
        joins=(
            JoinCondition("ps", "ps_partkey", "p", "p_partkey"),
            JoinCondition("ps", "ps_suppkey", "s", "s_suppkey"),
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
            JoinCondition("n", "n_regionkey", "r", "r_regionkey"),
        ),
    )


def _q3() -> QuerySpec:
    """Q3: customer / orders / lineitem (shipping priority)."""
    return QuerySpec(
        name="tpch_q3",
        relations=(
            RelationRef("c", "customer", eq("c_mktsegment", "BUILDING")),
            RelationRef("o", "orders", lt("o_orderdate", 1200)),
            RelationRef("l", "lineitem", gt("l_shipdate", 1200)),
        ),
        joins=(
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
        ),
    )


def _q4() -> QuerySpec:
    """Q4: orders / lineitem (order priority checking)."""
    return QuerySpec(
        name="tpch_q4",
        relations=(
            RelationRef("o", "orders", between("o_orderdate", 1000, 1090)),
            RelationRef("l", "lineitem"),
        ),
        joins=(JoinCondition("l", "l_orderkey", "o", "o_orderkey"),),
    )


def _q5() -> QuerySpec:
    """Q5: customer / orders / lineitem / supplier / nation / region — **cyclic**.

    The ``c_nationkey = s_nationkey`` predicate closes a cycle between the
    customer and supplier sides of the join graph.
    """
    return QuerySpec(
        name="tpch_q5",
        relations=(
            RelationRef("c", "customer"),
            RelationRef("o", "orders", between("o_orderdate", 400, 765)),
            RelationRef("l", "lineitem"),
            RelationRef("s", "supplier"),
            RelationRef("n", "nation"),
            RelationRef("r", "region", eq("r_name", "ASIA")),
        ),
        joins=(
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
            JoinCondition("c", "c_nationkey", "s", "s_nationkey"),
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
            JoinCondition("n", "n_regionkey", "r", "r_regionkey"),
        ),
    )


def _q7() -> QuerySpec:
    """Q7: supplier / lineitem / orders / customer / nation x2 (volume shipping)."""
    return QuerySpec(
        name="tpch_q7",
        relations=(
            RelationRef("s", "supplier"),
            RelationRef("l", "lineitem", between("l_shipdate", 700, 1430)),
            RelationRef("o", "orders"),
            RelationRef("c", "customer"),
            RelationRef("n1", "nation", isin("n_name", ["NATION#000001", "NATION#000002"])),
            RelationRef("n2", "nation", isin("n_name", ["NATION#000003", "NATION#000004"])),
        ),
        joins=(
            JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("s", "s_nationkey", "n1", "n_nationkey"),
            JoinCondition("c", "c_nationkey", "n2", "n_nationkey"),
        ),
    )


def _q8() -> QuerySpec:
    """Q8: part / lineitem / supplier / orders / customer / nation x2 / region."""
    return QuerySpec(
        name="tpch_q8",
        relations=(
            RelationRef("p", "part", eq("p_type", "ECONOMY")),
            RelationRef("l", "lineitem"),
            RelationRef("s", "supplier"),
            RelationRef("o", "orders", between("o_orderdate", 365, 1095)),
            RelationRef("c", "customer"),
            RelationRef("n1", "nation"),
            RelationRef("n2", "nation"),
            RelationRef("r", "region", eq("r_name", "AMERICA")),
        ),
        joins=(
            JoinCondition("l", "l_partkey", "p", "p_partkey"),
            JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("c", "c_nationkey", "n1", "n_nationkey"),
            JoinCondition("n1", "n_regionkey", "r", "r_regionkey"),
            JoinCondition("s", "s_nationkey", "n2", "n_nationkey"),
        ),
    )


def _q9() -> QuerySpec:
    """Q9: part / supplier / lineitem / partsupp / orders / nation (product profit).

    The partsupp edges on *both* partkey and suppkey make this query join two
    relations on a composite key — an acyclic but not γ-acyclic structure.
    """
    return QuerySpec(
        name="tpch_q9",
        relations=(
            RelationRef("p", "part", starts_with("p_name", "part#0000")),
            RelationRef("s", "supplier"),
            RelationRef("l", "lineitem"),
            RelationRef("ps", "partsupp"),
            RelationRef("o", "orders"),
            RelationRef("n", "nation"),
        ),
        joins=(
            JoinCondition("l", "l_partkey", "p", "p_partkey"),
            JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
            JoinCondition("ps", "ps_partkey", "l", "l_partkey"),
            JoinCondition("ps", "ps_suppkey", "l", "l_suppkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
        ),
    )


def _q10() -> QuerySpec:
    """Q10: customer / orders / lineitem / nation (returned item reporting)."""
    return QuerySpec(
        name="tpch_q10",
        relations=(
            RelationRef("c", "customer"),
            RelationRef("o", "orders", between("o_orderdate", 800, 890)),
            RelationRef("l", "lineitem", eq("l_returnflag", "R")),
            RelationRef("n", "nation"),
        ),
        joins=(
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("c", "c_nationkey", "n", "n_nationkey"),
        ),
    )


def _q11() -> QuerySpec:
    """Q11: partsupp / supplier / nation (important stock identification)."""
    return QuerySpec(
        name="tpch_q11",
        relations=(
            RelationRef("ps", "partsupp"),
            RelationRef("s", "supplier"),
            RelationRef("n", "nation", eq("n_name", "NATION#000007")),
        ),
        joins=(
            JoinCondition("ps", "ps_suppkey", "s", "s_suppkey"),
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
        ),
    )


def _q12() -> QuerySpec:
    """Q12: orders / lineitem (shipping modes and order priority)."""
    return QuerySpec(
        name="tpch_q12",
        relations=(
            RelationRef("o", "orders"),
            RelationRef("l", "lineitem", isin("l_shipmode", ["MAIL", "SHIP"]) & lt("l_receiptdate", 1000)),
        ),
        joins=(JoinCondition("l", "l_orderkey", "o", "o_orderkey"),),
    )


def _q13() -> QuerySpec:
    """Q13: customer / orders (customer distribution)."""
    return QuerySpec(
        name="tpch_q13",
        relations=(
            RelationRef("c", "customer"),
            RelationRef("o", "orders", eq("o_orderpriority", "1-URGENT")),
        ),
        joins=(JoinCondition("o", "o_custkey", "c", "c_custkey"),),
    )


def _q14() -> QuerySpec:
    """Q14: lineitem / part (promotion effect)."""
    return QuerySpec(
        name="tpch_q14",
        relations=(
            RelationRef("l", "lineitem", between("l_shipdate", 1000, 1030)),
            RelationRef("p", "part"),
        ),
        joins=(JoinCondition("l", "l_partkey", "p", "p_partkey"),),
    )


def _q15() -> QuerySpec:
    """Q15: supplier / lineitem (top supplier)."""
    return QuerySpec(
        name="tpch_q15",
        relations=(
            RelationRef("s", "supplier"),
            RelationRef("l", "lineitem", between("l_shipdate", 1200, 1290)),
        ),
        joins=(JoinCondition("l", "l_suppkey", "s", "s_suppkey"),),
    )


def _q16() -> QuerySpec:
    """Q16: partsupp / part / supplier (parts/supplier relationship)."""
    return QuerySpec(
        name="tpch_q16",
        relations=(
            RelationRef("ps", "partsupp"),
            RelationRef("p", "part", isin("p_size", [9, 14, 19, 23, 36, 45, 49, 3])),
            RelationRef("s", "supplier", eq("s_comment_has_complaint", 0)),
        ),
        joins=(
            JoinCondition("ps", "ps_partkey", "p", "p_partkey"),
            JoinCondition("ps", "ps_suppkey", "s", "s_suppkey"),
        ),
    )


def _q17() -> QuerySpec:
    """Q17: lineitem / part (small-quantity-order revenue)."""
    return QuerySpec(
        name="tpch_q17",
        relations=(
            RelationRef("l", "lineitem", lt("l_quantity", 3)),
            RelationRef("p", "part", eq("p_brand", "Brand#23") & eq("p_container", "MED BAG")),
        ),
        joins=(JoinCondition("l", "l_partkey", "p", "p_partkey"),),
    )


def _q18() -> QuerySpec:
    """Q18: customer / orders / lineitem (large volume customer)."""
    return QuerySpec(
        name="tpch_q18",
        relations=(
            RelationRef("c", "customer"),
            RelationRef("o", "orders", gt("o_totalprice", 400000.0)),
            RelationRef("l", "lineitem"),
        ),
        joins=(
            JoinCondition("o", "o_custkey", "c", "c_custkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
        ),
    )


def _q19() -> QuerySpec:
    """Q19: lineitem / part (discounted revenue, disjunctive predicate)."""
    return QuerySpec(
        name="tpch_q19",
        relations=(
            RelationRef("l", "lineitem", isin("l_shipmode", ["AIR", "REG AIR"]) & lt("l_quantity", 20)),
            RelationRef("p", "part", isin("p_container", ["SM CASE", "SM BOX", "MED BAG"])),
        ),
        joins=(JoinCondition("l", "l_partkey", "p", "p_partkey"),),
    )


def _q20() -> QuerySpec:
    """Q20: supplier / nation / partsupp / part (potential part promotion)."""
    return QuerySpec(
        name="tpch_q20",
        relations=(
            RelationRef("s", "supplier"),
            RelationRef("n", "nation", eq("n_name", "NATION#000012")),
            RelationRef("ps", "partsupp"),
            RelationRef("p", "part", starts_with("p_name", "part#00001")),
        ),
        joins=(
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
            JoinCondition("ps", "ps_suppkey", "s", "s_suppkey"),
            JoinCondition("ps", "ps_partkey", "p", "p_partkey"),
        ),
    )


def _q21() -> QuerySpec:
    """Q21: supplier / lineitem / orders / nation (suppliers who kept orders waiting)."""
    return QuerySpec(
        name="tpch_q21",
        relations=(
            RelationRef("s", "supplier"),
            RelationRef("l", "lineitem", gt("l_receiptdate", 1400)),
            RelationRef("o", "orders", eq("o_orderstatus", "F")),
            RelationRef("n", "nation", eq("n_name", "NATION#000020")),
        ),
        joins=(
            JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
            JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
            JoinCondition("s", "s_nationkey", "n", "n_nationkey"),
        ),
    )


def _q22() -> QuerySpec:
    """Q22: customer / orders (global sales opportunity)."""
    return QuerySpec(
        name="tpch_q22",
        relations=(
            RelationRef("c", "customer", gt("c_acctbal", 5000.0)),
            RelationRef("o", "orders"),
        ),
        joins=(JoinCondition("o", "o_custkey", "c", "c_custkey"),),
    )


_QUERY_BUILDERS = {
    2: _q2, 3: _q3, 4: _q4, 5: _q5, 7: _q7, 8: _q8, 9: _q9, 10: _q10,
    11: _q11, 12: _q12, 13: _q13, 14: _q14, 15: _q15, 16: _q16, 17: _q17,
    18: _q18, 19: _q19, 20: _q20, 21: _q21, 22: _q22,
}

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
        return _QUERY_BUILDERS[number]()
    except KeyError:
        raise WorkloadError(
            f"TPC-H Q{number} is not part of the workload (Q1/Q6 are single-table; "
            f"valid numbers: {sorted(_QUERY_BUILDERS)})"
        ) from None


def all_queries() -> Dict[str, QuerySpec]:
    """All TPC-H queries of the workload, keyed by name."""
    return {f"q{n}": builder() for n, builder in sorted(_QUERY_BUILDERS.items())}


def query_numbers() -> tuple[int, ...]:
    """All available query numbers."""
    return tuple(sorted(_QUERY_BUILDERS))
