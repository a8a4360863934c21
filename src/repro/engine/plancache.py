"""Prepared-statement cache for the serving layer: a statement repeated over
unchanged tables pays only for its base-filter masks and its execution.

Every statement enters the engine through :func:`pin_statement`, which
pins its tables before binding.  A :class:`~repro.engine.server.Server`
passes it the cache it always keeps, bounded by the fixed
:data:`DEFAULT_PLAN_CACHE_ENTRIES`; ``Database.sql`` passes none.  Two LRUs
of at most ``max_entries`` entries each:

* **Statements**, keyed by the client's ``(text, name)``: the compiled
  :class:`~repro.sql.Statement` — query, ``EXPLAIN`` / ``ANALYZE`` flags,
  canonical text and the version of every table it was bound against.
  A hit skips lex / parse / bind / lower while each of those tables keeps
  that version in the request's snapshot (a replace may change a schema).
* **Prepared executions**, keyed by :class:`PlanCacheKey`.  The canonical
  text ``to_sql(spec, include_name=False)`` is a free normal form: texts
  that differ in whitespace, case or clause order, and a ``QuerySpec`` and
  its SQL twin, share it.  An entry holds what planning derives from the
  spec and the versions — join graph (filtered sizes are fixed per
  version), join tree, schedule, join plan, physical plan — once per
  ``skip_backward_if_aligned`` value, so no other option splits it.

A replace bumps a version, lookups over the old one miss, and stale entries
age out of the LRU.  Per request the server pins a snapshot, evaluates the
masks (no entry holds per-row arrays) and runs the pipeline.  Published
entries never change, so concurrent requests share them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.errors import CatalogError, PlanError
from repro.query import QuerySpec
from repro.sql import Statement, Versions, bind_select, bind_statement, parse_statement
from repro.sql.format import to_sql
from repro.storage.catalog import Catalog, CatalogSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database, ExecutionOptions, _PreparedExecution
    from repro.engine.modes import ExecutionMode
    from repro.exec.statistics import ExecutionStats

DEFAULT_PLAN_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one prepared execution."""

    #: Canonical SQL text (``to_sql(spec, include_name=False)``).
    text: str
    #: Execution mode value (plans differ across transfer strategies).
    mode: str
    #: The pinned ``(table, version)`` pairs the query planned against.
    versions: Versions


def _versions(snapshot: CatalogSnapshot) -> Versions:
    return tuple(sorted(snapshot.versions().items()))


class PlanCache:
    """A thread-safe two-level LRU: statements, then prepared executions.

    ``hits`` / ``misses`` count prepared-execution lookups.
    """

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("plan cache must allow at least one entry")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._statements: "OrderedDict[Tuple[str, Optional[str]], Statement]" = OrderedDict()
        self._prepared: "OrderedDict[PlanCacheKey, Dict[bool, _PreparedExecution]]" = OrderedDict()

    def _get(self, entries: OrderedDict, key: Any, count: bool = False) -> Any:
        with self._lock:
            value = entries.get(key)
            if value is not None:
                entries.move_to_end(key)
            if count:
                self.hits += value is not None
                self.misses += value is None
            return value

    def _put(self, entries: OrderedDict, key: Any, value: Any) -> None:
        with self._lock:
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.max_entries:
                entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._statements.clear()
            self._prepared.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._prepared)


def pin_statement(
    source: Union[str, QuerySpec],
    name: Optional[str],
    catalog: Catalog,
    cache: Optional[PlanCache] = None,
) -> Tuple[Statement, CatalogSnapshot]:
    """The statement of ``source`` and a snapshot pinning its tables, which
    the caller releases.

    SQL text is parsed, its tables pinned, then bound and lowered against
    that snapshot, so a statement always runs on the versions it was bound
    against.  With a ``cache``, the statement carries its canonical text,
    and SQL text is compiled only when ``cache`` holds no statement still
    valid in the pinned versions.
    """
    if isinstance(source, QuerySpec):
        snapshot = catalog.snapshot(ref.table for ref in source.relations)
        text = _canonical(source) if cache is not None else None
        return Statement(source, versions=_versions(snapshot), text=text), snapshot
    key = (source, name)
    if cache is not None:
        statement = cache._get(cache._statements, key)
        if statement is not None and all(catalog.has_table(t) for t, _ in statement.versions):
            snapshot = catalog.snapshot(t for t, _ in statement.versions)
            if _versions(snapshot) == statement.versions:
                return statement, snapshot
            snapshot.release()
    parsed = parse_statement(source)
    try:
        snapshot = catalog.snapshot(ref.table for ref in parsed.tables)
    except CatalogError:
        # An unknown table: binding against the live catalog names it.
        bind_select(parsed, catalog, source, name=name)
        raise
    try:
        statement = bind_statement(parsed, source, snapshot, name, _versions(snapshot))
    except BaseException:
        snapshot.release()
        raise
    if cache is not None:
        statement = replace(statement, text=_canonical(statement.query))
        cache._put(cache._statements, key, statement)
    return statement, snapshot


def _canonical(query: QuerySpec) -> Optional[str]:
    try:
        return to_sql(query, include_name=False)
    except PlanError:
        return None


def prepare(
    cache: PlanCache, database: "Database", statement: Statement, mode: "ExecutionMode",
    options: "ExecutionOptions", stats: "ExecutionStats", snapshot: CatalogSnapshot,
) -> "_PreparedExecution":
    """``Database._prepare`` of ``statement`` over ``snapshot``, with only
    the base-filter masks evaluated anew when ``cache`` holds its entry —
    and not even those for a plain ``EXPLAIN``, which executes nothing."""
    query = statement.query
    if statement.text is None:
        return database._prepare(query, mode, None, options, stats, catalog=snapshot)
    key = PlanCacheKey(statement.text, mode.value, statement.versions)
    variants = cache._get(cache._prepared, key, count=True) or {}
    skip = options.skip_backward_if_aligned
    prepared = variants.get(skip)
    if prepared is None:
        prepared = database._prepare(query, mode, None, options, stats, catalog=snapshot)
        # Copy on write: a published variant map never changes.
        cache._put(cache._prepared, key, {**variants, skip: replace(prepared, masks={})})
        return prepared
    physical = prepared.physical
    if physical.query_name != query.name:
        physical = replace(physical, query_name=query.name)
    if statement.explain and not statement.analyze:
        return replace(prepared, physical=physical)
    start = time.perf_counter()
    masks = database.filter_masks(query, catalog=snapshot)
    stats.timings.scan_filter += time.perf_counter() - start
    return replace(prepared, masks=masks, physical=physical)
