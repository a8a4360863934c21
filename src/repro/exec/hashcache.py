"""Query-lifetime hash cache: hash every key column at most once per query.

The predicate-transfer pipeline makes many Bloom build/probe passes over the
*same* key columns: a relation inserts its join keys into a forward-pass
filter, probes backward-pass filters over the same keys, and the join phase
may hash them yet again.  Each pass historically paid a fresh splitmix64
hash (plus the block bit-pattern derivation, the bulk of the per-key work)
over a freshly gathered key array.

:class:`HashCache` eliminates the redundancy with two granularities of
memoized pass, both pure functions of the key values (so replaying them is
bit-identical to hashing directly):

* **Full-column passes** (:meth:`bloom_pass`) over *all* rows of an
  immutable base column.  Computed only when some consumer touches the
  column while its relation is unreduced — then the pass costs no gather at
  all — and afterwards served to reduced consumers through one
  ``hashes.take(row_indices)`` gather (:meth:`peek_bloom_pass`).
* **Per-selection passes** (:meth:`selection_pass` /
  :meth:`store_selection_pass`) keyed by the identity of a relation's
  ``row_indices`` array: a transfer step's build and probe over the same
  relation state, or two steps between which the relation was not reduced,
  share one pass with zero re-gathering.  An unreduced relation holds no
  ``row_indices`` vector and so has no selection token; it is the case the
  full-column pass serves, keyed by the column buffer's own token (an
  ``arange`` materialized per call would get a fresh token and always miss).

The hash join itself hashes nothing — :class:`~repro.exec.kernels.HashIndex`
addresses a table by ``key - min`` or binary-searches sorted keys — so only
the Bloom passes are cached here.

Entries are keyed by a *weakref-tracked token* of the underlying NumPy
buffers, which makes self-joins — several aliases over one table — share a
single pass per column.  Raw ``id()`` keys would be unsound here: CPython reuses
addresses, so a selection array allocated after a superseded one is
collected can receive the dead array's ``id`` and silently alias its
cached pass.  :class:`_ArrayTokens` hands out monotonically increasing
tokens that are retired (never reissued) when their array dies, so a
recycled address can never resurrect a stale entry — and the cache no
longer needs to pin superseded ``row_indices`` arrays alive just to keep
their ids stable.  The cache is populated and read only from the
executor's coordinator thread (morsel worker threads receive
already-gathered slices), so it needs no locking.

Pass reuses (a whole hashing pass skipped) and fresh passes computed are
counted into ``record.hash_hits`` / ``record.hash_misses`` — the cache's own
tally (read back as ``hits`` / ``misses``) until an executor points
``record`` at the :class:`~repro.exec.statistics.OpStats` of the op it runs.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bloom.bloom_filter import hash_keys, key_patterns
from repro.errors import ExecutionError
from repro.exec.statistics import OpStats
from repro.storage.table import Table

#: A cached Bloom hashing pass: (splitmix64 hashes, block bit-patterns).
BloomPass = Tuple[np.ndarray, np.ndarray]


class _ArrayTokens:
    """Stable identity tokens for NumPy arrays, safe against ``id()`` reuse.

    ``token(array)`` returns the same integer for the same live array and a
    *fresh* integer for any array first seen later — even one allocated at a
    recycled address.  A weakref callback retires the mapping when the array
    dies, and tokens count monotonically upward, so a dead array's token is
    never reissued.  This is what makes it sound to key cache entries by
    array identity without holding the arrays alive.
    """

    __slots__ = ("_by_id", "_next")

    def __init__(self) -> None:
        # id(array) -> (weakref, token); the id is only a lookup accelerator,
        # the weakref decides whether the mapping still describes this array.
        self._by_id: Dict[int, Tuple[weakref.ref, int]] = {}
        self._next = 0

    def token(self, array: np.ndarray) -> int:
        key = id(array)
        entry = self._by_id.get(key)
        if entry is not None and entry[0]() is array:
            return entry[1]
        token = self._next
        self._next += 1

        def _retire(ref: weakref.ref, *, _key: int = key, _self: "_ArrayTokens" = self) -> None:
            current = _self._by_id.get(_key)
            if current is not None and current[0] is ref:
                del _self._by_id[_key]

        self._by_id[key] = (weakref.ref(array, _retire), token)
        return token

    def __len__(self) -> int:
        return len(self._by_id)


class HashCache:
    """Memoized per-column / per-selection hashing passes for one query."""

    #: Selection passes retained per column.  Relation states progress
    #: monotonically, so reuse only ever targets a recent state; keeping two
    #: covers interleaved self-join aliases while bounding memory.
    SELECTION_PASSES_PER_COLUMN = 2

    def __init__(self) -> None:
        self._tokens = _ArrayTokens()
        # column-data token -> (hashes, patterns)
        self._full: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # column-data token -> most-recent-first list of (row_indices token,
        # hashes, patterns).  No strong reference to the selection array:
        # its *token* is what can never alias, so a superseded
        # ``row_indices`` is free to be collected.
        self._selection: Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]] = {}
        self.record = OpStats(index=-1, kind="hash_cache")

    @property
    def hits(self) -> int:
        return self.record.hash_hits

    @property
    def misses(self) -> int:
        return self.record.hash_misses

    # ------------------------------------------------------------------
    # Full-column passes
    # ------------------------------------------------------------------
    def bloom_pass(self, table: Table, column: str) -> BloomPass:
        """The (hashes, patterns) pass over one full base column.

        Computed on first request, replayed on every later one.
        """
        data = self._key_data(table, column)
        entry = self._full.get(self._tokens.token(data))
        if entry is not None:
            self.record.hash_hits += 1
            return entry
        self.record.hash_misses += 1
        hashes = hash_keys(data)
        patterns = key_patterns(hashes)
        self._full[self._tokens.token(data)] = (hashes, patterns)
        return hashes, patterns

    def peek_bloom_pass(self, table: Table, column: str) -> Optional[BloomPass]:
        """An already-computed full-column pass, or None (never computes)."""
        data = self._key_data(table, column)
        return self._full.get(self._tokens.token(data))

    def adopt_full_pass(self, table: Table, column: str, bloom_pass: BloomPass) -> None:
        """Seed the cache with a full-column pass computed elsewhere.

        Used by the executor to replay a cross-query ``bloom_pass`` artifact
        into this query's cache; counts neither a hit nor a miss (the
        artifact cache's own counters record the reuse).
        """
        data = self._key_data(table, column)
        self._full[self._tokens.token(data)] = (bloom_pass[0], bloom_pass[1])

    # ------------------------------------------------------------------
    # Per-selection passes
    # ------------------------------------------------------------------
    def selection_pass(
        self, table: Table, column: str, row_indices: np.ndarray
    ) -> Optional[BloomPass]:
        """A cached pass over exactly this selection of the column, or None.

        The selection is identified by the ``row_indices`` array's identity
        *token* — every in-place reduction replaces the array (and a dead
        array's token is never reissued), so a stale pass can never be
        returned for a changed selection.
        """
        data = self._key_data(table, column)
        row_token = self._tokens.token(row_indices)
        for entry in self._selection.get(self._tokens.token(data), ()):
            if entry[0] == row_token:
                self.record.hash_hits += 1
                return entry[1], entry[2]
        return None

    def store_selection_pass(
        self,
        table: Table,
        column: str,
        row_indices: np.ndarray,
        bloom_pass: BloomPass,
    ) -> None:
        """Cache a pass over one selection.

        Counts neither a hit nor a miss — the caller knows whether the pass
        was freshly hashed (a miss) or derived from an already-counted
        full-column reuse.  At most :data:`SELECTION_PASSES_PER_COLUMN`
        recent passes are retained per column, so superseded relation
        states do not pile up over a long transfer phase.
        """
        data = self._key_data(table, column)
        row_token = self._tokens.token(row_indices)
        entries = self._selection.setdefault(self._tokens.token(data), [])
        entries[:] = [e for e in entries if e[0] != row_token]
        entries.insert(0, (row_token, bloom_pass[0], bloom_pass[1]))
        del entries[self.SELECTION_PASSES_PER_COLUMN :]

    # ------------------------------------------------------------------
    # Internals / accounting
    # ------------------------------------------------------------------
    @staticmethod
    def _key_data(table: Table, column: str) -> np.ndarray:
        col = table.column(column)
        if not col.dtype.is_integer_backed:
            raise ExecutionError(
                f"column {column!r} of {table.name!r} is not integer-backed; "
                "only integer-backed columns can be hashed as join keys"
            )
        return col.data

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached hash arrays (excluding the column data)."""
        total = 0
        for hashes, patterns in self._full.values():
            total += int(hashes.nbytes) + int(patterns.nbytes)
        for entries in self._selection.values():
            for _, hashes, patterns in entries:
                total += int(hashes.nbytes) + int(patterns.nbytes)
        return total

    def __len__(self) -> int:
        return len(self._full) + sum(len(entries) for entries in self._selection.values())
