"""Every checked-in ``.sql`` file, verbatim, on the engine and on sqlite.

The one suite whose expected values do not come from the engine: the
generated tables are copied into stdlib ``sqlite3`` (:mod:`sqlite_oracle`)
and the *same text* runs on both, at two data seeds, in all five execution
modes (on these dense-key workloads the transfer modes take the
exact-bitmap path on nearly every step).  The TPC-DS files run twice, on
``tpcds.load`` and on ``dsb.load`` (skewed) data.  A mutation such as
dropping the last match in ``HashIndex.match`` or an off-by-one in the
bitmap table's ``lo`` is invisible to the self-agreement matrices (every
mode shares the kernel) and fails here.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import Database, ExecutionMode
from repro.workloads import sqlfiles
from sqlite_oracle import disagreements, load_sqlite, sqlite_aggregates

#: Large enough that most statements have a non-empty answer (TPC-DS needs
#: 1.0: at 0.2 only 10 of its 42 do), small enough that sqlite's nested loops
#: stay around a second per workload.
SCALE = 0.2
TPCDS_SCALE = 1.0
DATA_SEEDS = (3, 11)

#: (file stem, data it runs on): each workload's own load, and DSB's for TPC-DS.
CASES = [(stem, sqlfiles.workload_of(stem)) for stem in sorted(sqlfiles.available())]
CASES += [(stem, "dsb") for stem in sqlfiles.stems_for("tpcds")]

#: Fewest non-empty answers per data set for the comparison to mean anything
#: (an all-zero corpus would agree trivially).  Measured: 2 of 3, 17-19 of 20,
#: 11-18 of 33, 34-36 of 42 twice; the generated data varies with the
#: process's hash seed, so the floors sit well under that.
MIN_NONEMPTY = {"synthetic": 2, "tpch": 12, "job": 6, "tpcds": 25, "dsb": 25}


@pytest.fixture(scope="module")
def replicas():
    """``replica(stem, data, seed)`` -> (engine database, sqlite copy of its tables)."""
    caches = {}
    connections = {}

    def replica(stem: str, data: str, seed: int):
        scale = TPCDS_SCALE if data in ("tpcds", "dsb") else SCALE
        cache = caches.setdefault((data == "dsb", seed), {})
        if data == "dsb" and not cache:
            cache["tpcds"] = sqlfiles.database_for("dsb", scale=scale, seed=seed)
        db = sqlfiles.database_of(stem, cache, scale=scale, seed=seed)
        if id(db) not in connections:
            connections[id(db)] = sqlite3.connect(":memory:")
            load_sqlite(db, connections[id(db)])
        return db, connections[id(db)]

    yield replica
    for connection in connections.values():
        connection.close()
    for cache in caches.values():
        for db in cache.values():
            db.close()


@pytest.mark.parametrize("seed", DATA_SEEDS)
@pytest.mark.parametrize("stem,data", CASES)
def test_sql_file_agrees_with_sqlite(stem, data, seed, replicas):
    db, connection = replicas(stem, data, seed)
    text = sqlfiles.sql_text(stem)
    expected = sqlite_aggregates(connection, text)
    for mode in ExecutionMode:
        result = db.sql(text, mode=mode)
        assert not disagreements(result.aggregates, expected), (stem, data, seed, mode)


#: The single-attribute joins of the corpus that are not on an id, a date or a
#: dictionary code: TPC-DS q19 equates zip codes, 12 stores' worth scattered
#: over a 68 k-wide range probed by 1,000 addresses — a sparse domain the
#: rule rightly leaves to the sorted index (when an earlier join has not
#: already emptied the build side).
SORTED_JOINS = {("tpcds_q19", "ca.ca_zip")}


def test_single_attribute_joins_match_through_a_direct_table(replicas):
    """With or without a transfer phase, every other single-attribute join's
    build side passes the domain rule; a new name here means the rule (or a
    workload's key layout) regressed.  Composite keys are packed products of
    ranges and may be too sparse for a table."""
    found = set()
    for stem, data in CASES:
        db = replicas(stem, data, DATA_SEEDS[0])[0]
        for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
            result = db.sql(sqlfiles.sql_text(stem), mode=mode)
            ops = result.physical_plan.ops
            found |= {
                (stem, *ops[record.index].attributes)
                for record in result.op_stats
                if record.join_index == "sorted" and len(ops[record.index].attributes) == 1
            }
    assert found <= SORTED_JOINS, found - SORTED_JOINS


def test_the_comparison_is_not_vacuous(replicas):
    """On every data set, most statements count something at these scales."""
    nonempty = dict.fromkeys(MIN_NONEMPTY, 0)
    for stem, data in CASES:
        connection = replicas(stem, data, DATA_SEEDS[0])[1]
        nonempty[data] += sqlite_aggregates(connection, sqlfiles.sql_text(stem))["count_star"] > 0
    assert all(nonempty[data] >= MIN_NONEMPTY[data] for data in MIN_NONEMPTY), nonempty


def test_oracle_covers_sum_avg_min_max_and_empty_inputs():
    """The comparison rules beyond COUNT, which the checked-in files never
    exercise: integer aggregates exact, float ones within tolerance, and an
    aggregate over no rows (sqlite ``NULL``, engine ``0.0``)."""
    rng = np.random.default_rng(5)
    db = Database()
    db.register_dataframe(
        "d", {"id": np.arange(50, dtype=np.int64), "grp": rng.integers(0, 5, 50)}, primary_key=["id"]
    )
    db.register_dataframe(
        "f", {"d_id": rng.integers(0, 60, 2_000), "price": rng.random(2_000) * 100.0,
              "qty": rng.integers(1, 9, 2_000)},
    )
    connection = sqlite3.connect(":memory:")
    try:
        load_sqlite(db, connection)
        for predicate in ("d.grp < 3", "d.grp > 99"):
            text = (
                "SELECT COUNT(*) AS n, SUM(f.price) AS revenue, AVG(f.price) AS mean, "
                "MIN(f.qty) AS lo, MAX(f.qty) AS hi, SUM(f.qty) AS units "
                f"FROM f, d WHERE f.d_id = d.id AND {predicate}"
            )
            expected = sqlite_aggregates(connection, text)
            for mode in ExecutionMode:
                assert not disagreements(db.sql(text, mode=mode).aggregates, expected), (predicate, mode)
        assert disagreements({"n": 3.0}, {"n": 4}) == {"n": (3.0, 4)}
        assert disagreements({"s": 1.0}, {"s": 1.0 + 1e-6}) and not disagreements({"s": 1.0}, {"s": 1.0 + 1e-12})
    finally:
        connection.close()
        db.close()
