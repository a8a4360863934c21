"""All 56 checked-in ``.sql`` files, verbatim, on the engine and on sqlite.

The first test in the suite whose expected values do not come from the
engine: the generated tables are copied into stdlib ``sqlite3``
(:mod:`sqlite_oracle`) and the *same text* runs on both, at two data seeds,
in ``BASELINE`` (plain hash joins) and ``RPT`` (transfer phase first — on
these dense-key workloads that means the exact-bitmap path on nearly every
step).  A mutation such as dropping the last match in ``HashIndex.match`` or
an off-by-one in the bitmap table's ``lo`` is invisible to the
self-agreement matrices (every mode shares the kernel) and fails here.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import Database, ExecutionMode
from repro.workloads import sqlfiles
from sqlite_oracle import disagreements, load_sqlite, sqlite_aggregates

#: Large enough that most statements have a non-empty answer (32 of 53 on
#: TPC-H + JOB), small enough that sqlite's nested loops stay under a second.
SCALE = 0.2
DATA_SEEDS = (3, 11)
MODES = (ExecutionMode.BASELINE, ExecutionMode.RPT)


@pytest.fixture(scope="module")
def replicas():
    """``replica(stem, seed)`` -> (engine database, sqlite copy of its tables)."""
    pairs = {}

    def replica(stem: str, seed: int):
        workload = sqlfiles.workload_of(stem)
        # A synthetic instance is one fixed database per query.
        key = (stem, 0) if workload == "synthetic" else (workload, seed)
        if key not in pairs:
            db = sqlfiles.database_for(
                workload, scale=SCALE, seed=seed, synthetic_query=stem[len("synthetic_"):]
            )
            connection = sqlite3.connect(":memory:")
            load_sqlite(db, connection)
            pairs[key] = (db, connection)
        return pairs[key]

    yield replica
    for db, connection in pairs.values():
        db.close()
        connection.close()


@pytest.mark.parametrize("seed", DATA_SEEDS)
@pytest.mark.parametrize("stem", sorted(sqlfiles.available()))
def test_sql_file_agrees_with_sqlite(stem, seed, replicas):
    db, connection = replicas(stem, seed)
    text = sqlfiles.sql_text(stem)
    expected = sqlite_aggregates(connection, text)
    for mode in MODES:
        result = db.sql(text, mode=mode)
        assert not disagreements(result.aggregates, expected), (stem, seed, mode)


def test_the_comparison_is_not_vacuous(replicas):
    """Most statements count something at this scale (an all-zero corpus
    would agree trivially)."""
    nonzero = sum(
        sqlite_aggregates(replicas(stem, DATA_SEEDS[0])[1], sqlfiles.sql_text(stem))["count_star"] > 0
        for stem in sqlfiles.available()
    )
    assert nonzero >= 20


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
