"""Shared fixtures for the test suite.

The fixtures build small, deterministic databases so the full suite stays
fast while still exercising realistic join structures (star, snowflake,
many-to-many, cyclic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ExecutionMode, JoinCondition, QuerySpec, RelationRef
from repro.expr import eq, lt
from repro.storage.table import ForeignKey
from repro.workloads import dsb, job, tpcds, tpch


@pytest.fixture(scope="session", autouse=True)
def shm_leak_guard():
    """Assert engine-owned resources drain by end of session.

    Autouse at session scope, so it is set up before (and torn down after)
    every other session fixture: databases the fixtures publish arena
    segments from are closed first, then this guard shuts the process pool
    down and fails the session if any segment this process created is still
    live or any memory governor still holds reservations — the no-leak
    acceptance criterion, covering injected faults, timeouts, and worker
    crashes too.
    """
    import gc

    from repro.exec import faults
    from repro.exec.process import shutdown_workers
    from repro.storage import buffer, shm

    yield
    shutdown_workers()
    faults.clear()
    shm.assert_no_leaks()
    # Collect first: governors whose queries completed are garbage, and only
    # still-referenced ones with live reservations indicate a leak.
    gc.collect()
    buffer.assert_no_outstanding_reservations()


@pytest.fixture
def morsel_rows(monkeypatch):
    """``morsel_rows(n)``: every backend preset cuts ``n``-row morsels for this test.

    The chunked / parallel / process presets read their morsel size from a
    module constant when a backend is made, so this is how a small fixture
    gets multi-morsel fan-out (there is no configuration field for it).
    """
    from repro.exec import backends, process

    def set_rows(rows: int) -> None:
        monkeypatch.setattr(backends, "DEFAULT_CHUNK_SIZE", rows)
        monkeypatch.setattr(backends, "DEFAULT_MORSEL_SIZE", rows)
        monkeypatch.setattr(process, "DEFAULT_PROCESS_MORSEL_SIZE", rows)

    return set_rows


@pytest.fixture(scope="session")
def imdb_db() -> Database:
    """A small IMDB-like database (keyword / title / movie_keyword / movie_info / cast_info)."""
    rng = np.random.default_rng(17)
    n_k, n_t, n_n, n_mk, n_mi, n_ci = 40, 300, 200, 1_500, 4_000, 2_500
    db = Database()
    db.register_dataframe(
        "keyword",
        {"id": np.arange(1, n_k + 1), "keyword": [f"kw{i}" for i in range(1, n_k + 1)]},
        primary_key=["id"],
    )
    db.register_dataframe(
        "title",
        {"id": np.arange(1, n_t + 1), "production_year": rng.integers(1950, 2020, n_t)},
        primary_key=["id"],
    )
    db.register_dataframe(
        "name",
        {"id": np.arange(1, n_n + 1), "gender": rng.choice(["m", "f"], n_n)},
        primary_key=["id"],
    )
    db.register_dataframe(
        "movie_keyword",
        {
            "movie_id": rng.integers(1, n_t + 1, n_mk),
            "keyword_id": rng.integers(1, n_k + 1, n_mk),
        },
        foreign_keys=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("keyword_id", "keyword", "id"),
        ],
    )
    db.register_dataframe(
        "movie_info",
        {"movie_id": rng.integers(1, n_t + 1, n_mi), "info_bucket": rng.integers(0, 50, n_mi)},
        foreign_keys=[ForeignKey("movie_id", "title", "id")],
    )
    db.register_dataframe(
        "cast_info",
        {
            "movie_id": rng.integers(1, n_t + 1, n_ci),
            "person_id": rng.integers(1, n_n + 1, n_ci),
        },
        foreign_keys=[
            ForeignKey("movie_id", "title", "id"),
            ForeignKey("person_id", "name", "id"),
        ],
    )
    yield db
    db.close()


@pytest.fixture(scope="session")
def star_query() -> QuerySpec:
    """An acyclic (in fact γ-acyclic) 4-relation query over the IMDB fixture."""
    return QuerySpec(
        name="imdb_star",
        relations=(
            RelationRef("k", "keyword", eq("keyword", "kw7")),
            RelationRef("t", "title", lt("production_year", 2000)),
            RelationRef("mk", "movie_keyword"),
            RelationRef("mi", "movie_info"),
        ),
        joins=(
            JoinCondition("mk", "keyword_id", "k", "id"),
            JoinCondition("mk", "movie_id", "t", "id"),
            JoinCondition("mi", "movie_id", "t", "id"),
        ),
    )


@pytest.fixture(scope="session")
def chain_query() -> QuerySpec:
    """A 5-relation chain/star mix over the IMDB fixture (keyword-mk-title-ci-name)."""
    return QuerySpec(
        name="imdb_chain",
        relations=(
            RelationRef("k", "keyword", eq("keyword", "kw3")),
            RelationRef("mk", "movie_keyword"),
            RelationRef("t", "title"),
            RelationRef("ci", "cast_info"),
            RelationRef("n", "name", eq("gender", "f")),
        ),
        joins=(
            JoinCondition("mk", "keyword_id", "k", "id"),
            JoinCondition("mk", "movie_id", "t", "id"),
            JoinCondition("ci", "movie_id", "t", "id"),
            JoinCondition("ci", "person_id", "n", "id"),
        ),
    )


@pytest.fixture(scope="session")
def cyclic_query() -> QuerySpec:
    """A cyclic 3-relation query (a genuine triangle over three distinct attributes).

    The three join conditions use three *different* attribute pairs, so the
    attribute classes stay separate and the query hypergraph is a triangle
    (not α-acyclic).  The join semantics are artificial but the data types
    line up; only the topology matters for these tests.
    """
    return QuerySpec(
        name="imdb_triangle",
        relations=(
            RelationRef("mk", "movie_keyword"),
            RelationRef("mi", "movie_info"),
            RelationRef("ci", "cast_info"),
        ),
        joins=(
            JoinCondition("mk", "movie_id", "mi", "movie_id"),
            JoinCondition("mi", "info_bucket", "ci", "movie_id"),
            JoinCondition("ci", "person_id", "mk", "keyword_id"),
        ),
    )


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A tiny TPC-H database shared by integration tests."""
    db = Database()
    tpch.load(db, scale=0.1, seed=1)
    yield db
    db.close()


@pytest.fixture(scope="session")
def job_db() -> Database:
    """A tiny JOB/IMDB database shared by integration tests."""
    db = Database()
    job.load(db, scale=0.1, seed=1)
    yield db
    db.close()


@pytest.fixture(scope="session")
def tpcds_db() -> Database:
    """A tiny TPC-DS database shared by integration tests."""
    db = Database()
    tpcds.load(db, scale=0.1, seed=1)
    yield db
    db.close()


@pytest.fixture(scope="session")
def dsb_db() -> Database:
    """A tiny DSB (skewed TPC-DS) database shared by integration tests."""
    db = Database()
    dsb.load(db, scale=0.1, seed=1)
    yield db
    db.close()


@pytest.fixture(scope="session")
def sparse_db() -> Database:
    """``fact`` ⋈ ``dim`` over ids drawn from a 2**60 domain.

    Too sparse for a bitmap membership table, so the PT/RPT transfer steps
    of :func:`sparse_query` stay Bloom filters (on dense keys the executor
    runs them as exact bitmap semi-joins instead).
    """
    rng = np.random.default_rng(13)
    ids = rng.choice(np.int64(2) ** 60, size=2_000, replace=False)
    db = Database()
    db.register_dataframe(
        "dim", {"id": ids, "attr": rng.integers(0, 10, 2_000)}, primary_key=["id"]
    )
    db.register_dataframe(
        "fact", {"dim_id": rng.choice(ids, size=30_000), "v": rng.integers(0, 100, 30_000)}
    )
    yield db
    db.close()


@pytest.fixture(scope="session")
def sparse_query() -> QuerySpec:
    """Both sides filtered, so the forward and the backward step both run."""
    return QuerySpec(
        name="sparse",
        relations=(RelationRef("f", "fact", lt("v", 90)), RelationRef("d", "dim", lt("attr", 5))),
        joins=(JoinCondition("f", "dim_id", "d", "id"),),
    )


@pytest.fixture(scope="session")
def all_modes() -> tuple[ExecutionMode, ...]:
    """Every execution mode, in a fixed order."""
    return tuple(ExecutionMode)
