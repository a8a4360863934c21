"""Shared-memory column arena: zero-copy base columns for process workers.

The process backend (:mod:`repro.exec.process`) fans probe morsels out to
worker *processes*.  Shipping a 1M-row key column through a pickle pipe per
morsel would erase the parallel win, so immutable base-table columns are
placed once in ``multiprocessing.shared_memory`` segments and workers attach
by name — a task message then carries only (segment name, dtype, shape,
morsel range).

Three layers live here:

* low-level segment bookkeeping — every segment this process *creates* is
  recorded in a module registry so leaks are detectable
  (:func:`live_segment_count` / :func:`assert_no_leaks`) and an ``atexit``
  hook unlinks anything still live at interpreter shutdown;
* :class:`ShmArrayRef` — a picklable handle (name, dtype, shape) that
  workers resolve with :func:`attach_array`;
* :class:`SharedColumnArena` — the owner-side cache mapping
  ``(table name, catalog version, column)`` to a published segment.  The
  key includes :meth:`~repro.storage.catalog.Catalog.version`, so replacing
  a table can never alias stale segment contents, and
  :meth:`~SharedColumnArena.invalidate_table` eagerly unlinks the replaced
  table's segments.

Python < 3.13 registers *attaching* processes with the resource tracker
too (bpo-39959); under the spawn start method the worker's tracker would
then unlink segments the parent still uses when the worker exits.
:func:`attach_array` therefore unregisters the segment immediately after
attaching — unless this process shares the creator's tracker (fork-started
pool workers; see ``_UNREGISTER_ON_ATTACH``).  Only the creating process
ever unlinks.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.exec import faults

#: Name prefix of every segment this library creates; the test suite scans
#: ``/dev/shm`` for the prefix to prove nothing leaked past a run.
SEGMENT_PREFIX = "repro_shm"

#: Injected ``shm.unlink`` faults are transient: retried this many times,
#: after which the unlink proceeds anyway — a fault plan can therefore delay
#: an unlink but never leak a segment.
_UNLINK_FAULT_RETRIES = 3

#: Created (owned) segments of *this* process: name -> (SharedMemory, pid).
#: The pid guards forked children, which inherit the dict but must never
#: unlink their parent's segments.
_LIVE: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}
_COUNTER = 0

#: Guards ``_LIVE`` and ``_COUNTER``: concurrent server queries create and
#: unlink transient segments from many threads, and an unguarded counter
#: increment could mint duplicate segment names.
_REGISTRY_LOCK = threading.Lock()


def _next_name() -> str:
    global _COUNTER
    with _REGISTRY_LOCK:
        _COUNTER += 1
        counter = _COUNTER
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{counter}"


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create (and register) a shared-memory segment owned by this process."""
    segment = shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1), name=_next_name())
    with _REGISTRY_LOCK:
        _LIVE[segment.name] = (segment, os.getpid())
    return segment


def unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink an owned segment; idempotent, fork-safe."""
    with _REGISTRY_LOCK:
        entry = _LIVE.pop(segment.name, None)
    if entry is not None and entry[1] != os.getpid():
        # A forked child inherited the registry; the parent owns the segment.
        return
    # Injected unlink faults model a transiently-busy segment: retry a
    # bounded number of times, then unlink regardless — the leak invariant
    # must hold under every fault plan.
    for _ in range(_UNLINK_FAULT_RETRIES):
        if not faults.should_fire("shm.unlink"):
            break
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - platform dependent
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def live_segment_count() -> int:
    """Segments created by this process and not yet unlinked."""
    pid = os.getpid()
    with _REGISTRY_LOCK:
        return sum(1 for _, owner in _LIVE.values() if owner == pid)


def live_segment_names() -> Tuple[str, ...]:
    """Names of this process's live segments (for leak diagnostics)."""
    pid = os.getpid()
    with _REGISTRY_LOCK:
        return tuple(name for name, (_, owner) in _LIVE.items() if owner == pid)


def assert_no_leaks() -> None:
    """Raise when this process still owns shared-memory segments."""
    names = live_segment_names()
    if names:
        raise ExecutionError(f"leaked shared-memory segments: {sorted(names)}")


#: Every live :class:`SharedColumnArena` (weakly held): lets leak checks
#: distinguish arena-published segments — owned, persistent by design until
#: ``Database.close()`` — from transient segments that must never outlive a
#: query, even a faulted one.
_ARENAS: "weakref.WeakSet" = weakref.WeakSet()


def published_segment_names() -> Tuple[str, ...]:
    """Names of segments currently published by any live arena."""
    names = []
    for arena in list(_ARENAS):
        names.extend(arena.segment_names())
    return tuple(names)


def assert_no_transient_leaks() -> None:
    """Raise when a non-arena segment is still live.

    The per-test / per-query leak invariant: after any execution — faulted,
    timed out, cancelled, crashed — the only segments this process may still
    own are the arena-published base columns.
    """
    leaked = set(live_segment_names()) - set(published_segment_names())
    if leaked:
        raise ExecutionError(f"leaked transient shared-memory segments: {sorted(leaked)}")


def release_all() -> None:
    """Unlink every segment this process still owns (shutdown / test teardown)."""
    pid = os.getpid()
    with _REGISTRY_LOCK:
        entries = list(_LIVE.items())
    for name, (segment, owner) in entries:
        if owner == pid:
            unlink_segment(segment)
        else:
            with _REGISTRY_LOCK:
                _LIVE.pop(name, None)


atexit.register(release_all)


# ---------------------------------------------------------------------------
# Picklable array references
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShmArrayRef:
    """A picklable reference to a NumPy array living in a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Bytes of the referenced array (not the segment, which may round up)."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


def share_array(array: np.ndarray) -> Tuple[shared_memory.SharedMemory, ShmArrayRef]:
    """Copy ``array`` into a fresh owned segment and return (segment, ref)."""
    faults.fire("shm.share", "injected fault publishing array to shared memory")
    array = np.ascontiguousarray(array)
    segment = create_segment(array.nbytes)
    if array.nbytes:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
    return segment, ShmArrayRef(name=segment.name, dtype=array.dtype.str, shape=array.shape)


@dataclass(frozen=True)
class EncodedColumnRef:
    """A picklable reference to an *encoded* column in shared memory.

    Ships the narrow code buffer (plus, for dictionary encodings, the
    ``int64`` value array) instead of the flat ``int64`` column — workers
    decode gathered codes back to the exact physical values, so probes
    stay bit-identical while the mapped bytes shrink by the code width.
    """

    codes: ShmArrayRef
    values: Optional[ShmArrayRef]
    base: int

    @property
    def name(self) -> str:
        """Primary segment name (used for governor reservation keys)."""
        return self.codes.name

    @property
    def nbytes(self) -> int:
        """Encoded bytes behind this ref (codes plus dictionary values)."""
        total = self.codes.nbytes
        if self.values is not None:
            total += self.values.nbytes
        return total

    @property
    def shape(self) -> Tuple[int, ...]:
        """Logical row shape (mirrors :class:`ShmArrayRef`)."""
        return self.codes.shape


def gather_encoded(ref: EncodedColumnRef, selection: np.ndarray) -> np.ndarray:
    """Gather + decode rows of an encoded shared column in this process.

    Returns exactly ``raw_column[selection]`` — the decode is lossless, so
    worker-side probes over encoded segments match owner-side execution
    bit for bit.
    """
    codes = attach_array(ref.codes)[selection]
    if ref.values is not None:
        values = attach_array(ref.values)
        return values[codes]
    decoded = codes.astype(np.int64)
    if ref.base:
        decoded += ref.base
    return decoded


#: Worker-side cache of attached segments: ref name -> (segment, array).
#: Bounded so long-running workers do not accumulate mappings of segments
#: the parent has already unlinked (the mapping itself stays valid on
#: POSIX after an unlink; only the memory is pinned until close).
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_ATTACH_CACHE_LIMIT = 64

#: Guards ``_ATTACHED``: worker processes are single-threaded, but the
#: owner process also attaches (inline crash-recovery fallback and encoded
#: gathers) and may do so from many server threads at once.
_ATTACH_LOCK = threading.Lock()

#: Whether :func:`attach_array` must undo the resource-tracker registration
#: Python < 3.13 performs on attach.  True for processes with their *own*
#: tracker (spawn workers: their tracker would otherwise unlink segments the
#: creator still uses when the worker exits).  Fork-started pool workers
#: share the parent's tracker process, where the attach registration is an
#: idempotent no-op and an unregister would strip the creator's own entry —
#: the pool initializer flips this flag accordingly.
_UNREGISTER_ON_ATTACH = True


def attach_array(ref: ShmArrayRef) -> np.ndarray:
    """Resolve a :class:`ShmArrayRef` in this (worker) process.

    The attached segment is cached by name — segment names are never reused
    within a process, so a cached mapping can never alias different data.
    """
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(ref.name)
        if cached is not None:
            return cached[1]
    faults.fire("shm.attach", f"injected fault attaching segment {ref.name}")
    segment = shared_memory.SharedMemory(name=ref.name)
    if _UNREGISTER_ON_ATTACH and ref.name not in _LIVE:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
    with _ATTACH_LOCK:
        existing = _ATTACHED.get(ref.name)
        if existing is not None:
            # Lost a race to attach the same segment: keep the first
            # mapping (arrays over it may already be in use) and drop ours.
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
            return existing[1]
        if len(_ATTACHED) >= _ATTACH_CACHE_LIMIT:
            evict_name, (evict_segment, _) = next(iter(_ATTACHED.items()))
            _ATTACHED.pop(evict_name, None)
            try:
                evict_segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        _ATTACHED[ref.name] = (segment, array)
    return array


def detach_all() -> None:
    """Close every cached worker-side attachment (worker shutdown)."""
    with _ATTACH_LOCK:
        segments = [segment for segment, _ in _ATTACHED.values()]
        _ATTACHED.clear()
    for segment in segments:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# The owner-side column arena
# ---------------------------------------------------------------------------
class SharedColumnArena:
    """Publishes immutable base-table columns into shared-memory segments.

    Owned by a :class:`~repro.engine.database.Database`; the pipeline
    executor asks for :meth:`column_ref` when the active backend ships
    probes to worker processes.  Segments are keyed by
    ``(table name, catalog version, column)`` — the same version the
    artifact cache keys on — so a table replace both *misses* the old key
    (new version) and unlinks the old segments once the catalog's release
    hooks fire :meth:`invalidate_version` (release-driven: a replace while
    a snapshot still reads the old version defers the unlink until the
    last reader lets go, so in-flight workers never lose their columns).
    """

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self._lock = threading.Lock()
        self._segments: Dict[
            Tuple[str, int, str, bool], Tuple[Tuple[shared_memory.SharedMemory, ...], object]
        ] = {}
        _ARENAS.add(self)

    def column_ref(self, table, column: str, encoded: bool = False):
        """A shared-memory ref for ``table.column(column)``, publishing on demand.

        Returns ``None`` when the column cannot be shared: the table is not
        (or no longer) the catalog's current registration under its name, or
        the column is not integer-backed (join keys always are).

        With ``encoded=True`` and a dictionary / bit-packed encoding
        available from the catalog's :class:`~repro.storage.encodings.EncodingStore`,
        the *encoded* buffers are published instead (an
        :class:`EncodedColumnRef`), shrinking the mapped footprint; RLE
        columns and unencoded columns fall back to the raw ``int64`` array.
        """
        try:
            version = self.catalog.version(table.name)
        except Exception:
            return None
        if self.catalog.table(table.name) is not table:
            return None
        col = table.column(column)
        if not col.dtype.is_integer_backed:
            return None
        encoded_column = None
        if encoded:
            try:
                candidate = self.catalog.encodings.encoded(table, column)
            except Exception:
                candidate = None
            # Point gathers over RLE would searchsorted per morsel row;
            # only gather-friendly layouts ship encoded.
            if candidate is not None and candidate.encoding in ("pack", "dict"):
                encoded_column = candidate
        key = (table.name, version, column, encoded_column is not None)
        with self._lock:
            entry = self._segments.get(key)
            if entry is not None:
                return entry[1]
        if encoded_column is not None:
            codes_segment, codes_ref = share_array(encoded_column.codes)
            segments: Tuple[shared_memory.SharedMemory, ...] = (codes_segment,)
            values_ref = None
            if encoded_column.values is not None:
                try:
                    values_segment, values_ref = share_array(encoded_column.values)
                except Exception:
                    # Publishing the dictionary failed after the codes went
                    # up: unlink the half-published pair before propagating.
                    unlink_segment(codes_segment)
                    raise
                segments = (codes_segment, values_segment)
            ref: object = EncodedColumnRef(
                codes=codes_ref, values=values_ref, base=encoded_column.base
            )
        else:
            segment, ref = share_array(col.data)
            segments = (segment,)
        with self._lock:
            existing = self._segments.get(key)
            if existing is None:
                self._segments[key] = (segments, ref)
                return ref
        # Lost a publish race: keep the winner (its ref may already be in
        # worker task messages) and unlink our duplicate segments.
        for segment in segments:
            unlink_segment(segment)
        return existing[1]

    @property
    def total_bytes(self) -> int:
        """Total bytes currently published by this arena."""
        with self._lock:
            return sum(ref.nbytes for _, ref in self._segments.values())

    @property
    def num_segments(self) -> int:
        """Number of live published segments."""
        with self._lock:
            return sum(len(segments) for segments, _ in self._segments.values())

    def published_keys(self) -> Tuple[Tuple[str, int, str, bool], ...]:
        """The (table, version, column, encoded) keys currently published."""
        with self._lock:
            return tuple(self._segments)

    def segment_names(self) -> Tuple[str, ...]:
        """Names of every OS segment this arena currently publishes."""
        with self._lock:
            return tuple(
                segment.name
                for segments, _ in self._segments.values()
                for segment in segments
            )

    def republish_missing(self) -> int:
        """Verify published segments still exist at the OS level.

        Crash recovery calls this after a worker-pool respawn: a dying
        worker cannot unlink segments it merely attached (ownership stays
        with the arena), but a spawn-mode worker's resource tracker can —
        so every published segment is probed by name, and entries whose OS
        object vanished are dropped from the registry so the next
        :meth:`column_ref` republishes them.  Returns the number of entries
        dropped for republication.
        """
        repaired = 0
        with self._lock:
            entries = list(self._segments.items())
        for key, (segments, _) in entries:
            missing = False
            for segment in segments:
                try:
                    probe = shared_memory.SharedMemory(name=segment.name)
                    probe.close()
                except FileNotFoundError:
                    missing = True
                    break
                except Exception:  # pragma: no cover - platform-specific probe failure
                    continue
            if missing:
                with self._lock:
                    self._segments.pop(key, None)
                for segment in segments:
                    unlink_segment(segment)
                repaired += 1
        return repaired

    def invalidate_table(self, name: str) -> None:
        """Unlink every published segment of ``name`` (any version)."""
        with self._lock:
            stale = [
                self._segments.pop(key)
                for key in [k for k in self._segments if k[0] == name]
            ]
        for segments, _ in stale:
            for segment in segments:
                unlink_segment(segment)

    def invalidate_version(self, name: str, version: int) -> None:
        """Unlink the published segments of one ``(table, version)``.

        Fired by the catalog's release hooks when the last snapshot pinning
        a replaced version releases it — never while a reader can still
        ship the segments to workers.
        """
        with self._lock:
            stale = [
                self._segments.pop(key)
                for key in [
                    k for k in self._segments if k[0] == name and k[1] == version
                ]
            ]
        for segments, _ in stale:
            for segment in segments:
                unlink_segment(segment)

    def close(self) -> None:
        """Unlink every published segment; idempotent."""
        with self._lock:
            entries = list(self._segments.values())
            self._segments.clear()
        for segments, _ in entries:
            for segment in segments:
                unlink_segment(segment)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
