"""Catalog: the registry of tables known to a database instance.

The catalog is the only mutable piece of the storage layer.  It maps table
names to :class:`~repro.storage.table.Table` objects and exposes the
statistics (row counts, distinct counts) that the optimizer's cardinality
estimator consumes.

Concurrency model (MVCC-lite)
-----------------------------
All catalog state is guarded by a re-entrant lock, so registration,
lookup, and version queries are safe from any thread.  On top of that the
catalog supports *pinned snapshots*: :meth:`Catalog.snapshot` captures an
immutable ``name -> (version, Table, TableStatistics)`` view and pins each
version with a refcount.  A concurrent ``register(..., replace=True)``
that replaces a pinned version *retains* the old table instead of
dropping it, so a query running against the snapshot keeps reading a
consistent pre-replace image.  When the last snapshot holding a version
releases it, the catalog drops the retained table and fires its *release
hooks* — this is what turns cache invalidation from immediate into
release-driven (the database wires :class:`ArtifactCache` invalidation
through these hooks).

Hooks are always fired *outside* the catalog lock: a hook takes its own
lock (the artifact cache's) and may call back into catalog
reads, so firing under the catalog lock would create a lock-order cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CatalogError
from repro.storage.table import Table


@dataclass
class TableStatistics:
    """Summary statistics for one table, used by cardinality estimation."""

    num_rows: int
    distinct_counts: Dict[str, int]

    def distinct(self, column: str) -> int:
        """Distinct count for a column (falls back to row count if unknown)."""
        return self.distinct_counts.get(column, max(self.num_rows, 1))


#: Signature of a release hook: called with (table_name, version) after the
#: last snapshot pinning that version releases it.
ReleaseHook = Callable[[str, int], None]


@dataclass(frozen=True)
class _SnapshotEntry:
    version: int
    table: Table
    statistics: TableStatistics


class CatalogSnapshot:
    """An immutable, pinned view of a subset of the catalog.

    Serves the same read API the executor and optimizer use on a live
    catalog (``table`` / ``version`` / ``statistics``), but
    every answer is frozen at the moment :meth:`Catalog.snapshot` was
    called.  Must be released exactly once (``release()`` is idempotent;
    the snapshot is also a context manager).
    """

    def __init__(self, catalog: "Catalog", entries: Dict[str, _SnapshotEntry]) -> None:
        self._catalog = catalog
        self._entries = entries
        self._released = False
        self._lock = threading.Lock()

    def _entry(self, name: str) -> _SnapshotEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"table {name!r} is not in this snapshot") from None

    def table(self, name: str) -> Table:
        return self._entry(name).table

    def version(self, name: str) -> int:
        return self._entry(name).version

    def statistics(self, name: str) -> TableStatistics:
        return self._entry(name).statistics

    def versions(self) -> Dict[str, int]:
        """The pinned ``name -> version`` map (used as a plan-cache key)."""
        return {name: entry.version for name, entry in self._entries.items()}

    def has_table(self, name: str) -> bool:
        return name in self._entries

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Unpin every version held by this snapshot (idempotent)."""
        with self._lock:
            if self._released:
                return
            self._released = True
        self._catalog._release_pins(
            [(name, entry.version) for name, entry in self._entries.items()]
        )

    def __enter__(self) -> "CatalogSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class Catalog:
    """A mutable, thread-safe registry of tables and their statistics."""

    def __init__(self) -> None:
        # Guards every dict below.  Re-entrant because read helpers call
        # each other (e.g. ``largest_table`` -> ``_tables``).
        self._lock = threading.RLock()
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, TableStatistics] = {}
        # Monotonic per-name version counters.  A name's counter survives
        # unregistration so a re-registered table can never reuse an old
        # version — cached execution artifacts keyed by (name, version)
        # therefore never alias stale data.
        self._versions: Dict[str, int] = {}
        # Snapshot pin refcounts and retained (replaced-but-pinned) tables.
        self._pins: Dict[Tuple[str, int], int] = {}
        self._retained: Dict[Tuple[str, int], Tuple[Table, TableStatistics]] = {}
        self._release_hooks: List[ReleaseHook] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, table: Table, replace: bool = False) -> None:
        """Register a table.

        Parameters
        ----------
        table:
            The table to register under ``table.name``.
        replace:
            When False (default), registering a name that already exists
            raises :class:`CatalogError`.
        """
        to_fire: List[Tuple[str, int]] = []
        with self._lock:
            name = table.name
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} is already registered")
            if name in self._tables:
                old_version = self._versions[name]
                old_key = (name, old_version)
                if self._pins.get(old_key):
                    # A snapshot still reads the old version: retain it so
                    # pinned readers keep a consistent image; invalidation
                    # fires when the last reader releases.
                    self._retained[old_key] = (
                        self._tables[name],
                        self._stats[name],
                    )
                else:
                    to_fire.append(old_key)
            self._tables[name] = table
            self._stats[name] = _compute_statistics(table)
            self._versions[name] = self._versions.get(name, 0) + 1
        # Outside the lock: release hooks take their own locks and may call
        # back into catalog reads.
        self._fire_release_hooks(to_fire)

    def unregister(self, name: str) -> None:
        """Remove a table from the catalog."""
        to_fire: List[Tuple[str, int]] = []
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"table {name!r} is not registered")
            old_key = (name, self._versions[name])
            if self._pins.get(old_key):
                self._retained[old_key] = (self._tables[name], self._stats[name])
            else:
                to_fire.append(old_key)
            del self._tables[name]
            del self._stats[name]
        self._fire_release_hooks(to_fire)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, names: Iterable[str]) -> CatalogSnapshot:
        """Pin the current version of each named table into a snapshot.

        Raises :class:`CatalogError` if any name is unregistered.  The
        returned snapshot must be released (it is a context manager).
        """
        with self._lock:
            entries: Dict[str, _SnapshotEntry] = {}
            for name in names:
                if name in entries:
                    continue
                if name not in self._tables:
                    raise CatalogError(f"table {name!r} is not registered")
                entries[name] = _SnapshotEntry(
                    version=self._versions[name],
                    table=self._tables[name],
                    statistics=self._stats[name],
                )
            for name, entry in entries.items():
                key = (name, entry.version)
                self._pins[key] = self._pins.get(key, 0) + 1
            return CatalogSnapshot(self, entries)

    def add_release_hook(self, hook: ReleaseHook) -> None:
        """Register a callback fired (outside the lock) when a version's
        last pin is released — or immediately on replace when unpinned."""
        with self._lock:
            self._release_hooks.append(hook)

    def _release_pins(self, keys: List[Tuple[str, int]]) -> None:
        to_fire: List[Tuple[str, int]] = []
        with self._lock:
            for key in keys:
                count = self._pins.get(key, 0) - 1
                if count > 0:
                    self._pins[key] = count
                    continue
                self._pins.pop(key, None)
                # Fire only for versions no longer current: either retained
                # (replaced while pinned) or already superseded.
                name, version = key
                if self._retained.pop(key, None) is not None:
                    to_fire.append(key)
                elif self._versions.get(name) != version or name not in self._tables:
                    to_fire.append(key)
        self._fire_release_hooks(to_fire)

    def _fire_release_hooks(self, keys: List[Tuple[str, int]]) -> None:
        if not keys:
            return
        with self._lock:
            hooks = list(self._release_hooks)
        for name, version in keys:
            for hook in hooks:
                hook(name, version)

    # Introspection for tests / leak assertions -------------------------
    def pinned_version_count(self) -> int:
        """Number of (name, version) pairs currently pinned by snapshots."""
        with self._lock:
            return len(self._pins)

    def retained_version_count(self) -> int:
        """Number of replaced-but-still-pinned table versions retained."""
        with self._lock:
            return len(self._retained)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """Return the table registered under ``name``."""
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                raise CatalogError(f"table {name!r} is not registered") from None

    def version(self, name: str) -> int:
        """Monotonic version of the table registered under ``name``.

        Bumped every time a table is (re-)registered under the name; never
        reused, even across unregister/register cycles.  Execution-artifact
        caches key on it so a table change invalidates every artifact built
        over the old contents.
        """
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"table {name!r} is not registered")
            return self._versions[name]

    def statistics(self, name: str) -> TableStatistics:
        """Return the statistics for the table registered under ``name``."""
        with self._lock:
            try:
                return self._stats[name]
            except KeyError:
                raise CatalogError(f"table {name!r} is not registered") from None

    def has_table(self, name: str) -> bool:
        """True when a table with that name is registered."""
        with self._lock:
            return name in self._tables

    def table_names(self) -> list[str]:
        """Names of all registered tables, in registration order."""
        with self._lock:
            return list(self._tables)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        with self._lock:
            return iter(list(self._tables.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def total_rows(self) -> int:
        """Total number of rows across all registered tables."""
        with self._lock:
            return sum(t.num_rows for t in self._tables.values())

    def largest_table(self) -> Optional[str]:
        """Name of the registered table with the most rows, or None if empty."""
        with self._lock:
            if not self._tables:
                return None
            return max(self._tables, key=lambda n: self._tables[n].num_rows)


def _compute_statistics(table: Table) -> TableStatistics:
    """Compute per-column distinct counts for a freshly registered table."""
    distinct = {col.name: col.distinct_count() for col in table.columns}
    return TableStatistics(num_rows=table.num_rows, distinct_counts=distinct)
