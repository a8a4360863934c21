"""The checked-in ``.sql`` files: the one definition of every benchmark query.

``src/repro/workloads/sql/`` holds one file per query — 20 TPC-H, 33 JOB
and 42 TPC-DS (DSB runs the TPC-DS text on skewed data), in the canonical
form of the ``QuerySpec → SQL`` formatter, each starting with a ``-- name:``
directive equal to its stem.  ``tpch.query(n)`` / ``job.query(n)`` /
``tpcds.query(n)`` / ``dsb.query(n)`` are :func:`query_spec` of the file;
nothing hand-built stands beside the text.  The three ``synthetic_*`` files
are the exception: renditions of the default-size instances, whose specs
stay with their size-parameterised generators.

The loader is text-first: :func:`sql_text` returns raw SQL, and binding
happens against whatever database the caller supplies — the same contract a
real benchmark harness has when it feeds ``.sql`` files to an engine under
test.  :func:`database_of` is the one stem → database rule every
corpus-wide harness shares.

:func:`run_all` executes every file end to end (swept per backend and
feature by ``tests/test_sql_execution.py``) and :func:`run_fault_sweep` does
so under fault injection; what the answers must equal is the caller's
business — another sweep, a fault-free baseline, or sqlite
(``tests/test_sqlite_oracle.py``).
"""

from __future__ import annotations

import functools
import importlib
import re
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.engine.database import Database, ExecutionOptions
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.errors import ReproError, WorkloadError
from repro.query import QuerySpec
from repro.sql import compile_statement
from repro.storage.catalog import Catalog
from repro.workloads import synthetic

#: Directory of the checked-in ``.sql`` files.
SQL_DIR = Path(__file__).resolve().parent / "sql"

#: Workload key → filename prefix of its ``.sql`` files.
_PREFIXES = {"synthetic": "synthetic_", "tpch": "tpch_", "job": "job_", "tpcds": "tpcds_"}


def available() -> Dict[str, Path]:
    """All checked-in ``.sql`` files, keyed by file stem, in sorted order."""
    return {path.stem: path for path in sorted(SQL_DIR.glob("*.sql"))}


def sql_path(stem: str) -> Path:
    """Path of one checked-in ``.sql`` file (e.g. ``"tpch_q5"``, ``"job_2a"``)."""
    path = SQL_DIR / f"{stem}.sql"
    if not path.is_file():
        known = ", ".join(sorted(available())) or "(none)"
        raise WorkloadError(f"no checked-in SQL file {stem!r} (available: {known})")
    return path


def sql_text(stem: str) -> str:
    """Raw SQL text of one checked-in file."""
    return sql_path(stem).read_text()


def workload_of(stem: str) -> str:
    """Which workload a file stem belongs to (by filename prefix)."""
    for workload, prefix in _PREFIXES.items():
        if stem.startswith(prefix):
            return workload
    raise WorkloadError(
        f"SQL file stem {stem!r} matches no workload prefix {sorted(_PREFIXES.values())}"
    )


def stems_for(workload: str) -> List[str]:
    """File stems of one workload's checked-in queries, sorted."""
    if workload not in _PREFIXES:
        raise WorkloadError(
            f"unknown workload {workload!r}; expected one of {sorted(_PREFIXES)}"
        )
    prefix = _PREFIXES[workload]
    return [stem for stem in available() if stem.startswith(prefix)]


# ---------------------------------------------------------------------------
# The files as query definitions
# ---------------------------------------------------------------------------
#: Workloads whose tables come from ``repro.workloads.<name>.load``.
_GENERATED = ("tpch", "job", "tpcds", "dsb")


def _load(workload: str) -> Callable[..., Dict[str, int]]:
    # Resolved by name at call time: the generator modules import this one
    # for their ``query(n)``, so it cannot import them while it loads.
    return importlib.import_module(f"repro.workloads.{workload}").load


@functools.lru_cache(maxsize=None)
def _schema(workload: str) -> Catalog:
    """Catalog of a minimal-scale ``load()``: the generator stays the only
    schema declaration.  Only the catalog is kept, never an open database."""
    db = Database()
    _load(workload)(db, scale=0.001)
    return db.catalog


@functools.lru_cache(maxsize=None)
def query_spec(stem: str) -> QuerySpec:
    """The :class:`~repro.query.QuerySpec` a checked-in benchmark file defines.

    Compiled once per process, on first use.  Synthetic files are
    default-parameter renditions of ``synthetic.*_instance().query`` — their
    constants follow the instance's size arguments — and have no entry here.
    """
    workload = workload_of(stem)
    if workload == "synthetic":
        raise WorkloadError(f"{stem!r} is defined by its repro.workloads.synthetic instance, not by its file")
    return compile_statement(sql_text(stem), _schema(workload)).query


def numbered_stems(workload: str) -> Dict[int, str]:
    """Query number → file stem of one workload (``5 → "tpch_q5"``,
    ``2 → "job_2a"``), ascending, from the files present."""
    numbers = {int(re.search(r"\d+", stem).group()): stem for stem in stems_for(workload)}
    return dict(sorted(numbers.items()))


# ---------------------------------------------------------------------------
# The databases the files bind against
# ---------------------------------------------------------------------------
def _synthetic_instances() -> Dict[str, synthetic.SyntheticInstance]:
    """Query name → freshly built synthetic instance (each owns its database)."""
    instances = (
        synthetic.figure2_instance(),
        synthetic.figure12_instance(),
        synthetic.unsafe_subjoin_instance(),
    )
    return {instance.query.name: instance for instance in instances}


def database_for(
    workload: str,
    scale: float = 0.1,
    seed: int = 1,
    synthetic_query: Optional[str] = None,
) -> Database:
    """Build the database a workload's SQL files bind against.

    ``"dsb"`` is the skewed load the ``tpcds_*`` files also run on.  For
    ``"synthetic"``, each query owns its own instance, so
    ``synthetic_query`` (the query name, e.g. ``"figure2"``) is required.
    """
    if workload in _GENERATED:
        db = Database()
        _load(workload)(db, scale=scale, seed=seed)
        return db
    if workload == "synthetic":
        instances = _synthetic_instances()
        if synthetic_query not in instances:
            raise WorkloadError(
                f"unknown synthetic query {synthetic_query!r} "
                f"(expected one of {sorted(instances)})"
            )
        return instances[synthetic_query].database
    raise WorkloadError(
        f"unknown workload {workload!r}; expected one of {sorted(('synthetic',) + _GENERATED)}"
    )


def database_key(stem: str) -> str:
    """Which database a file shares: a synthetic file owns its instance,
    every other workload has one database for all its files."""
    workload = workload_of(stem)
    return stem if workload == "synthetic" else workload


def database_of(stem: str, cache: Dict[str, Database], scale: float = 0.1, seed: int = 1) -> Database:
    """The database ``stem`` binds against, built into ``cache`` on first use.

    ``cache`` is keyed by :func:`database_key` and owned by the caller (who
    closes its databases).  Seeding it binds a workload's files to other
    data: ``{"tpcds": database_for("dsb", ...)}`` runs the TPC-DS text on DSB.
    """
    key = database_key(stem)
    if key not in cache:
        cache[key] = database_for(
            workload_of(stem), scale=scale, seed=seed, synthetic_query=stem[len("synthetic_") :]
        )
    return cache[key]


# ---------------------------------------------------------------------------
# Execution harness (the CI SQL-workload leg)
# ---------------------------------------------------------------------------
def run_all(
    mode: ExecutionMode = ExecutionMode.RPT,
    options: Optional[ExecutionOptions] = None,
    scale: float = 0.1,
    seed: int = 1,
    database_cache: Optional[Dict[str, Database]] = None,
) -> List[Dict[str, object]]:
    """Execute every checked-in ``.sql`` file through ``Database.sql``.

    Returns one record per file: ``{"stem", "name", "workload",
    "aggregates"}``.
    """
    databases: Dict[str, Database] = database_cache if database_cache is not None else {}
    records: List[Dict[str, object]] = []
    for stem, path in available().items():
        db = database_of(stem, databases, scale=scale, seed=seed)
        result = db.sql(path.read_text(), mode=mode, options=options)
        records.append(
            {
                "stem": stem,
                "name": result.query.name,
                "workload": workload_of(stem),
                "aggregates": dict(result.aggregates),
            }
        )
    return records


def run_fault_sweep(
    fault_spec: str,
    backend: str = "serial",
    mode: ExecutionMode = ExecutionMode.RPT,
    scale: float = 0.1,
    seed: int = 1,
    timeout_seconds: Optional[float] = None,
    database_cache: Optional[Dict[str, Database]] = None,
    stems: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Run every checked-in ``.sql`` workload under deterministic fault injection.

    This is the fault-tolerance acceptance contract (swept over every file
    by ``tests/test_faults.py``): under any
    :class:`~repro.exec.faults.FaultPlan`, every query must either complete
    with aggregates **bit-identical** to a fault-free serial execution or
    raise a typed :class:`~repro.errors.ReproError` subclass — and either
    way leave no backend pool thread alive behind it.  Any other outcome
    raises :class:`WorkloadError`.

    Returns one record per file: ``{"stem", "workload", "outcome"}`` where
    ``outcome`` is ``"completed"`` (bit-identical) or the name of the typed
    error class that was raised.  ``stems`` restricts the sweep to a subset
    of files (the full set when ``None``).
    """
    from repro.exec import faults
    from repro.exec.backends import pool_threads

    selected = {
        stem: path
        for stem, path in available().items()
        if stems is None or stem in stems
    }
    databases: Dict[str, Database] = database_cache if database_cache is not None else {}

    # Fault-free serial baselines, computed with injection disabled.
    faults.clear()
    serial_options = ExecutionOptions(execution=ExecutionConfig(backend="serial"))
    baselines: Dict[str, Dict[str, float]] = {}
    for stem, path in selected.items():
        db = database_of(stem, databases, scale=scale, seed=seed)
        baselines[stem] = dict(db.sql(path.read_text(), mode=mode, options=serial_options).aggregates)

    options = ExecutionOptions(
        execution=ExecutionConfig(
            backend=backend, faults=fault_spec, timeout_seconds=timeout_seconds
        )
    )
    records: List[Dict[str, object]] = []
    for stem, path in selected.items():
        db = database_of(stem, databases, scale=scale, seed=seed)
        threads_before = pool_threads()
        try:
            result = db.sql(path.read_text(), mode=mode, options=options)
        except ReproError as error:
            outcome = type(error).__name__
        else:
            if dict(result.aggregates) != baselines[stem]:
                raise WorkloadError(
                    f"SQL file {stem!r} diverged from its fault-free serial baseline "
                    f"under faults {fault_spec!r} on backend {backend!r}: "
                    f"{dict(result.aggregates)} != {baselines[stem]}"
                )
            outcome = "completed"
        # The no-leak invariant, checked after *every* query: no pool
        # thread the query started outlives it.
        leaked = pool_threads() - threads_before
        if leaked:
            raise WorkloadError(
                f"SQL file {stem!r} leaked backend pool threads under faults "
                f"{fault_spec!r}: {sorted(t.name for t in leaked)}"
            )
        records.append({"stem": stem, "workload": workload_of(stem), "outcome": outcome})
    faults.clear()
    return records
