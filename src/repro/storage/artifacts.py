"""Cross-query artifact cache: Bloom filters and hash indexes that outlive a query.

Repeated analytical traffic — dashboards, report fleets, retried queries —
re-executes the same queries over tables that have not changed, and the
engine historically rebuilt every transfer-phase Bloom filter and every
build-side hash index from scratch each time.  The :class:`ArtifactCache`
memoizes those *execution artifacts* across ``Database.execute`` calls.

An artifact is addressed by an :class:`ArtifactKey`:

* ``table`` / ``table_version`` — the catalog table the artifact summarizes
  and the catalog's monotonically increasing version of it
  (:meth:`~repro.storage.catalog.Catalog.version`).  Re-registering or
  replacing a table bumps the version, so artifacts built over the old data
  become unreachable — a stale filter is never served.
* ``column`` — the join-key column the artifact was built over.
* ``fingerprint`` — a digest of the relation's base-filter selection
  (:func:`mask_fingerprint`): artifacts are only shared between executions
  whose pushed-down predicates selected the same rows.  Artifacts are
  **never** cached over relations already reduced by earlier transfer steps
  of the same query (the executor enforces this via relation versions).
* ``kind`` / ``param`` — ``"bloom"`` (param encodes the FPR),
  ``"hash_index"``, or ``"bloom_pass"`` (a full-column hashing pass).  The
  column-pure ``bloom_pass`` uses the fingerprint ``"column"`` — it depends
  only on the immutable column data, never on a query's pushed-down
  predicate.
* ``encoding`` — the encoding identity of the column the artifact was
  built over (``"raw"``, or an :class:`~repro.storage.encodings.EncodedColumn`
  token such as ``"pack:u16:b0"``).  Encoded execution decodes to the same
  physical values, but the token keeps an artifact built while encodings
  were enabled from aliasing one built over raw buffers at the same
  catalog version — re-encoding a table is a representation change the key
  must observe.

Residency is bounded by a byte budget with LRU eviction; the pipeline
executor additionally charges resident artifacts it touches against the
per-query :class:`~repro.storage.buffer.MemoryGovernor` so governed runs
account for them.  The cache is guarded by a lock so a ``Database`` shared
between threads stays consistent.

The cache lives here, beside the :class:`~repro.storage.catalog.Catalog`
whose table versions key it, so the execution layer can consume it without
depending on the engine façade that owns its lifecycle.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

#: Default byte budget of a database's artifact cache (64 MiB).
DEFAULT_ARTIFACT_BUDGET_BYTES = 64 << 20

#: Canonical artifact kinds (free-form strings; these are the ones the
#: pipeline executor produces).
KIND_BLOOM = "bloom"
KIND_HASH_INDEX = "hash_index"
KIND_BLOOM_PASS = "bloom_pass"

#: Fingerprint of column-pure artifacts (independent of any base filter).
FINGERPRINT_COLUMN = "column"


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one cached execution artifact (see module docstring)."""

    table: str
    table_version: int
    column: str
    fingerprint: str
    kind: str
    param: str = ""
    encoding: str = "raw"


@dataclass
class _Entry:
    artifact: Any
    size_bytes: int


class ArtifactCache:
    """An LRU, byte-budgeted map from :class:`ArtifactKey` to built artifacts."""

    def __init__(self, budget_bytes: int = DEFAULT_ARTIFACT_BUDGET_BYTES) -> None:
        if budget_bytes <= 0:
            raise ValueError("artifact cache budget must be positive")
        self.budget_bytes = budget_bytes
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self._entries: "OrderedDict[ArtifactKey, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Bytes currently charged to resident artifacts."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: ArtifactKey) -> Optional[Any]:
        """The artifact cached under ``key`` (refreshing its LRU position), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.artifact

    def _evict_over_budget(self) -> None:
        """Evict LRU entries until the total fits the budget (lock held)."""
        while self._bytes > self.budget_bytes and self._entries:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.size_bytes
            self.evictions += 1

    def put(self, key: ArtifactKey, artifact: Any, size_bytes: int) -> None:
        """Cache ``artifact`` under ``key``, evicting LRU entries over budget.

        An artifact larger than the whole budget is not admitted (caching it
        would immediately evict everything else for no reuse).
        """
        if size_bytes < 0:
            raise ValueError(f"cannot cache artifact of {size_bytes} bytes")
        if size_bytes > self.budget_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.size_bytes
            self._entries[key] = _Entry(artifact=artifact, size_bytes=size_bytes)
            self._bytes += size_bytes
            self.insertions += 1
            self._evict_over_budget()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_table(self, table: str) -> int:
        """Drop every artifact built over ``table``; returns how many were dropped.

        Version-keyed lookups already make stale artifacts unreachable; this
        reclaims their bytes eagerly (the engine calls it when a table is
        re-registered).
        """
        with self._lock:
            stale = [key for key in self._entries if key.table == table]
            for key in stale:
                self._bytes -= self._entries.pop(key).size_bytes
            return len(stale)

    def invalidate_version(self, table: str, version: int) -> int:
        """Drop every artifact built over one version of ``table``.

        The release-driven path: the catalog fires this (through the
        database's release hooks) when the last snapshot pinning a replaced
        version lets go — so artifacts stay warm for in-flight readers of
        the old version and are reclaimed the moment nobody can reach them.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.table == table and key.table_version == version
            ]
            for key in stale:
                self._bytes -= self._entries.pop(key).size_bytes
            return len(stale)

    def clear(self) -> None:
        """Drop every cached artifact."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


def mask_fingerprint(mask: Optional[np.ndarray]) -> str:
    """Digest of a base-filter selection over a table.

    ``None`` (no pushed-down predicate — the relation scans the full table)
    fingerprints as ``"full"``; a boolean mask hashes its packed bits plus
    its length, so two executions share artifacts iff their predicates
    selected exactly the same rows.
    """
    if mask is None:
        return "full"
    mask = np.asarray(mask, dtype=bool)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(mask.shape[0]).tobytes())
    digest.update(np.packbits(mask).tobytes())
    return digest.hexdigest()
