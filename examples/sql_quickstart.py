"""SQL quickstart: feed SQL text straight to the engine.

Run with::

    python examples/sql_quickstart.py

The example loads the scaled-down TPC-H database and shows the SQL front
end end to end:

1. ``Database.sql`` — execute a SQL string under any execution mode (the
   statement is bound against a pinned snapshot of its tables and runs on
   that snapshot, the same path a ``Server`` session takes),
2. ``EXPLAIN SELECT ...`` / ``Database.explain_sql`` — inspect the compiled
   physical plan without executing, through the same statement path,
3. the checked-in ``.sql`` workload files (``repro.workloads.sqlfiles``),
4. the ``QuerySpec → SQL`` formatter and its round-trip guarantee, and
5. the caret diagnostics every malformed input produces.
"""

from __future__ import annotations

from repro import Database, ExecutionMode, SqlError
from repro.sql import compile_statement, to_sql
from repro.workloads import sqlfiles, tpch


def main() -> None:
    db = Database()
    tpch.load(db, scale=0.1, seed=42)

    # 1. SQL text in, QueryResult out — same engine, same five modes.
    text = """
    -- name: building_revenue
    SELECT COUNT(*) AS orders_joined, SUM(l.l_extendedprice) AS revenue
    FROM customer AS c, orders AS o, lineitem AS l
    WHERE o.o_custkey = c.c_custkey
      AND l.l_orderkey = o.o_orderkey
      AND c.c_mktsegment = 'BUILDING'
      AND o.o_orderdate < 1200
    """
    for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
        result = db.sql(text, mode=mode)
        print(f"{mode.label:<10} {result.aggregates}")

    # 2. EXPLAIN: the compiled physical plan, without executing.
    explained = db.sql("EXPLAIN " + text.lstrip())
    print("\nEXPLAIN (RPT):")
    print(explained.render())

    # 3. Checked-in workload files: every .sql file is a ready-made workload.
    q5 = sqlfiles.sql_text("tpch_q5")
    result = db.sql(q5, mode=ExecutionMode.RPT)
    print(f"\ntpch_q5.sql -> {result.query.name}: {result.aggregates}")

    # 4. QuerySpec -> SQL -> QuerySpec round trip.
    spec = tpch.query(9)
    rendered = to_sql(spec)
    assert compile_statement(rendered, db.catalog).query == spec
    print(f"\nround-trip OK for {spec.name}; formatter output starts:")
    print("\n".join(rendered.splitlines()[:4]))

    # 5. Malformed input: SqlError with a caret, never a bare exception.
    try:
        db.sql("SELECT COUNT(*) FROM orders o WHERE o.o_orderdat < 100")
    except SqlError as error:
        print("\ndiagnostics demo:")
        print(error)


if __name__ == "__main__":
    main()
