"""Process-parallel morsel execution over shared-memory columns.

:class:`ProcessBackend` is the GIL-free sibling of
:class:`~repro.exec.backends.MorselBackend`: probe inputs are cut into
morsels and dispatched to a pool of worker *processes*.  Two things make
this profitable in pure Python:

* **Shared-memory inputs.**  Probe key columns are never pickled through
  the task pipe.  Base-table columns are published once per
  ``(table, catalog version, column)`` by the engine's
  :class:`~repro.storage.shm.SharedColumnArena`; derived arrays (selection
  vectors, hash/pattern passes) are copied into transient segments for the
  duration of one probe call.  A task message carries only (spec ref,
  input refs, morsel range).
* **Shipped-once probe specs.**  The probe callable (a Bloom filter's
  bound ``probe``, a :class:`~repro.exec.kernels.HashIndex`'s ``contains``
  or ``match``) is pickled *once* per call into a shared segment; workers
  unpickle it on first touch and cache it by segment name.

Results are gathered in submit order and concatenated, so every mask and
match is bit-identical to the whole-column call
regardless of worker scheduling.  Probe structures are frozen (``prepare``
runs before the spec is pickled) so the shipped copy is complete.

**Crash recovery.**  A worker death no longer kills the query.  The pool is
a ``concurrent.futures.ProcessPoolExecutor`` — unlike ``multiprocessing.Pool``
it *detects* a lost task (``BrokenProcessPool`` surfaces on every pending
future instead of hanging) — and the morsel gather runs a bounded retry
loop: on a crash (or a transient worker-side error such as an injected
``shm.attach`` fault) the pool is respawned with exponential backoff, any
arena segment the dead workers held attachments to is re-verified /
re-published, and the unfinished morsels are resubmitted.  After
:data:`MAX_TASK_RETRIES` rounds the remaining morsels execute *inline* in the
parent over the same spec and the same slices — bit-identical, just slower.
The cooperative :class:`~repro.exec.faults.CancelToken` is checked before
each morsel result; on expiry the in-flight tasks are drained and the
transient segments unlinked before the typed error propagates.

Worker pools are expensive to start, so one module-level pool is shared by
every :class:`ProcessBackend` instance with the same (start method, worker
count, fault plan); the engine's per-query ``backend.close()`` is a no-op
here and the pool dies with the interpreter (:func:`shutdown_workers` +
``atexit``).  The ``fork`` start method is preferred (no interpreter
re-exec per worker); ``spawn`` is the fallback on platforms without fork.

Caveat: Bloom-filter probe *statistics* incremented inside workers stay in
the workers — the parent's counters only reflect morsels probed inline.
Adaptive-transfer decisions use relation cardinalities, not Bloom
counters, so adaptivity is unaffected.

All transient segments are unlinked in ``finally`` blocks: a crashing
worker, a timeout, or an injected fault still leaves the segment registry
empty.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import BackendUnavailable, ExecutionError
from repro.exec import faults
from repro.exec.backends import (
    MAX_DEFAULT_THREADS,
    ExecutionBackend,
    ProbeInput,
    as_probe_input,
    probe_input_rows,
    slice_probe_input,
)
from repro.exec.kernels import HashIndex, JoinMatches
from repro.storage import shm
from repro.storage.shm import EncodedColumnRef, ShmArrayRef

#: Process morsels are coarser than thread morsels: each task additionally
#: pays a pipe round-trip and (once per worker) a segment attach, so it must
#: carry more rows to amortize.
DEFAULT_PROCESS_MORSEL_SIZE = 65_536

#: Pool-respawn rounds per fan-out before the remaining morsels run inline.
MAX_TASK_RETRIES = 2

#: Exponential-backoff schedule for pool respawns: ``0.05 * 2**round``
#: seconds, capped here.
_RESPAWN_BACKOFF_CAP = 0.5

#: How long a timed-out / cancelled gather waits for still-running tasks
#: before unlinking transient segments (running workers hold their own
#: mapping, so an unlink under them is safe on POSIX; the wait just avoids
#: churning workers that are about to finish anyway).
_DRAIN_SECONDS = 1.0


# ---------------------------------------------------------------------------
# Task input descriptors (picklable, tiny)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _ArraysInput:
    """Probe input shipped as whole shared arrays; workers slice [lo:hi]."""

    refs: Tuple[ShmArrayRef, ...]
    is_tuple: bool


@dataclass(frozen=True)
class _GatherInput:
    """A base-column gather ``column[selection[lo:hi]]`` done worker-side.

    ``column`` is either a raw :class:`ShmArrayRef` or an
    :class:`~repro.storage.shm.EncodedColumnRef`; encoded refs are decoded
    after the gather, so workers see the exact physical values either way.
    ``selection`` is ``None`` for an identity relation: morsels are slices.
    """

    column: Union[ShmArrayRef, EncodedColumnRef]
    selection: Optional[ShmArrayRef]


_TaskInput = Union[_ArraysInput, _GatherInput]


class ShmGather:
    """A lazy probe input: base column (shareable) + selection vector.

    Built by the pipeline executor instead of eagerly gathering
    ``column.data[row_indices]`` when the active backend ships probes to
    worker processes — workers gather their own morsel from the shared
    base column, so the parent never materializes the probe keys at all.
    Backends that do not understand it receive the materialized array.
    ``selection`` is ``None`` for an identity relation (every row, in order).
    """

    __slots__ = ("column_ref", "selection", "column_data")

    def __init__(
        self, column_ref: ShmArrayRef, selection: Optional[np.ndarray], column_data: np.ndarray
    ) -> None:
        self.column_ref = column_ref
        self.selection = selection
        self.column_data = column_data

    @property
    def rows(self) -> int:
        rows = self.column_data if self.selection is None else self.selection
        return int(rows.shape[0])

    def materialize(self) -> np.ndarray:
        """The equivalent eager probe-key array (used for inline fallbacks)."""
        return self.materialize_slice(0, self.rows)

    def materialize_slice(self, lo: int, hi: int) -> np.ndarray:
        """One morsel of the eager gather (the inline crash-recovery path)."""
        if self.selection is None:
            return self.column_data[lo:hi]
        return self.column_data[self.selection[lo:hi]]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
#: Worker-local cache of unpickled probe specs keyed by segment name (names
#: are never reused, so entries can never alias different callables).
_SPEC_CACHE: Dict[str, object] = {}
_SPEC_CACHE_LIMIT = 32


def _worker_init(start_method: str, fault_spec: Optional[str] = None) -> None:
    # Forked workers inherit the parent's owned-segment registry; drop it so
    # a worker can never unlink segments it does not own, and start with a
    # clean attach cache.
    shm._LIVE.clear()
    shm._ATTACHED.clear()
    _SPEC_CACHE.clear()
    # Forked workers also share the parent's resource-tracker process: the
    # attach-time registration is an idempotent no-op there, but an
    # unregister would strip the parent's own entry (tracker KeyError noise
    # at unlink).  Spawned workers have their own tracker and must
    # unregister, or that tracker unlinks live segments on worker exit.
    shm._UNREGISTER_ON_ATTACH = start_method != "fork"
    # The fault plan is shipped through the initializer so worker-side sites
    # (process.task crashes, shm.attach failures) fire deterministically in
    # fresh workers too — forked workers would otherwise inherit the parent's
    # already-advanced counters.
    faults.configure(fault_spec)


def _resolve_spec(spec_ref: ShmArrayRef) -> object:
    spec = _SPEC_CACHE.get(spec_ref.name)
    if spec is None:
        payload = shm.attach_array(spec_ref)
        spec = pickle.loads(payload.tobytes())
        if len(_SPEC_CACHE) >= _SPEC_CACHE_LIMIT:
            _SPEC_CACHE.pop(next(iter(_SPEC_CACHE)))
        _SPEC_CACHE[spec_ref.name] = spec
    return spec


def _materialize_input(task_input: _TaskInput, lo: int, hi: int) -> ProbeInput:
    if isinstance(task_input, _GatherInput):
        if task_input.selection is None:
            rows = slice(lo, hi)
        else:
            rows = shm.attach_array(task_input.selection)[lo:hi]
        if isinstance(task_input.column, EncodedColumnRef):
            return shm.gather_encoded(task_input.column, rows)
        return shm.attach_array(task_input.column)[rows]
    arrays = tuple(shm.attach_array(ref)[lo:hi] for ref in task_input.refs)
    if task_input.is_tuple:
        return arrays
    return arrays[0]


def _maybe_crash() -> None:
    """The ``process.task`` fault site: this worker process dies, hard.

    ``os._exit`` models a segfault / OOM-kill — no exception propagates, no
    cleanup runs, the pool just loses the process mid-task.
    """
    if faults.should_fire("process.task"):
        os._exit(1)


def _probe_task(
    spec_ref: ShmArrayRef, task_input: _TaskInput, lo: int, hi: int, timed: bool = False
) -> object:
    # With ``timed`` (tracing on) the worker measures its own morsel and
    # ships ``(payload, seconds)`` back with the result — span summaries
    # aggregate in the parent with zero extra cross-process messages.
    _maybe_crash()
    start = time.perf_counter() if timed else 0.0
    probe_fn = _resolve_spec(spec_ref)
    payload = probe_fn(_materialize_input(task_input, lo, hi))
    if timed:
        return payload, time.perf_counter() - start
    return payload


def _match_task(
    spec_ref: ShmArrayRef, task_input: _TaskInput, lo: int, hi: int, timed: bool = False
) -> object:
    _maybe_crash()
    start = time.perf_counter() if timed else 0.0
    index = _resolve_spec(spec_ref)
    matches = index.match(_materialize_input(task_input, lo, hi))
    payload = (matches.probe_indices, matches.build_indices)
    if timed:
        return payload, time.perf_counter() - start
    return payload


# ---------------------------------------------------------------------------
# Shared pool management
# ---------------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[Tuple[str, int, Optional[str]]] = None

#: Guards the shared pool globals: concurrent server queries acquire the
#: pool (and respawn it after crashes) from many threads at once.
_POOL_LOCK = threading.RLock()


def _start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _current_fault_spec() -> Optional[str]:
    """The parent's active fault plan, serialized for worker initializers."""
    injector = faults.active_injector()
    return injector.plan.spec() if injector is not None else None


def _shared_pool(num_workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        key = (_start_method(), num_workers, _current_fault_spec())
        if _POOL is not None and _POOL_KEY == key:
            return _POOL
        shutdown_workers()
        faults.fire("process.pool", "injected worker-pool start failure")
        context = multiprocessing.get_context(key[0])
        _POOL = ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(key[0], key[2]),
        )
        _POOL_KEY = key
        return _POOL


def _respawn_pool() -> None:
    """Tear the (broken) shared pool down so the next acquisition is fresh."""
    shutdown_workers()


def shutdown_workers() -> None:
    """Shut the shared worker pool down (tests / interpreter shutdown).

    Concurrent queries that raced a submit into the dying pool see
    ``RuntimeError``/``CancelledError`` from it; ``_run_morsels`` treats
    both as retryable, so their morsels re-run on the next pool (or fall
    back inline) bit-identically.
    """
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        pool = _POOL
        _POOL = None
        _POOL_KEY = None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_workers)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
class ProcessBackend(ExecutionBackend):
    """Morsel-parallel execution over a pool of worker processes.

    Inputs travel through shared memory (see module docstring); small
    inputs (one morsel or less) run inline in the parent, exactly like the
    thread backend, so short probes never pay process-dispatch overhead.

    Everything it counts goes into ``record`` (see
    :class:`~repro.exec.backends.ExecutionBackend`): ``shm_bytes`` placed in
    (or resolved from) shared segments, the crash-recovery activity
    (``worker_crashes`` / ``tasks_retried`` / ``inline_morsels``) and, while
    tracing, the ``worker_batches`` / ``worker_seconds`` workers report back.
    """

    name = "process"
    #: The pipeline executor checks this to hand over lazy ShmGather inputs.
    ships_probes = True

    def __init__(
        self,
        num_workers: Optional[int] = None,
        morsel_size: int = DEFAULT_PROCESS_MORSEL_SIZE,
    ) -> None:
        super().__init__()
        if num_workers is not None and num_workers <= 0:
            raise ExecutionError("process backend needs at least one worker")
        if morsel_size <= 0:
            raise ExecutionError("morsel size must be positive")
        self.num_workers = num_workers or min(MAX_DEFAULT_THREADS, os.cpu_count() or 1)
        self.morsel_size = morsel_size
        #: Tracing: when the executor flips ``trace_morsels`` on, workers
        #: time each morsel locally and ship the seconds back.
        self.trace_morsels = False
        #: The engine's SharedColumnArena, when one is active: after a pool
        #: respawn, segments the dead workers held attachments to are
        #: re-verified (and dropped for re-publication if the OS object is
        #: gone) before morsels are retried.
        self.arena = None

    # -- internals ----------------------------------------------------------
    def ensure_ready(self) -> None:
        """Bring the shared worker pool up; ladder-degradable on failure."""
        try:
            _shared_pool(self.num_workers)
        except Exception as error:
            raise BackendUnavailable(f"worker pool unavailable: {error}") from error

    def _morsels(self, total_rows: int) -> List[Tuple[int, int]]:
        return [
            (start, min(start + self.morsel_size, total_rows))
            for start in range(0, total_rows, self.morsel_size)
        ]

    def _ship_spec(self, spec: object):
        """Pickle ``spec`` into a transient segment; None when unpicklable."""
        try:
            payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        try:
            segment, ref = shm.share_array(np.frombuffer(payload, dtype=np.uint8))
        except ExecutionError:
            # Publishing failed (e.g. an injected shm.share fault): the
            # caller probes inline instead.
            return None
        self.record.shm_bytes += ref.nbytes
        return segment, ref

    def _ship_input(self, keys):
        """Place a probe input in shared memory.

        Returns ``(transient_segments, task_input)``; only the transient
        segments (selection vectors, derived arrays) are unlinked after the
        call — arena-published base columns outlive it.
        """
        segments = []
        if isinstance(keys, ShmGather):
            selection_ref = None
            self.record.shm_bytes += keys.column_ref.nbytes
            if keys.selection is not None:
                selection_segment, selection_ref = shm.share_array(keys.selection)
                segments.append(selection_segment)
                self.record.shm_bytes += selection_ref.nbytes
            return segments, _GatherInput(column=keys.column_ref, selection=selection_ref)
        parts = keys if isinstance(keys, tuple) else (keys,)
        refs = []
        for part in parts:
            segment, ref = shm.share_array(part)
            segments.append(segment)
            refs.append(ref)
            self.record.shm_bytes += ref.nbytes
        return segments, _ArraysInput(refs=tuple(refs), is_tuple=isinstance(keys, tuple))

    def _inline_task(self, task_fn, spec, keys, lo: int, hi: int):
        """Run one morsel in the parent, matching the worker task's output shape."""
        if isinstance(keys, ShmGather):
            morsel_input: ProbeInput = keys.materialize_slice(lo, hi)
        else:
            morsel_input = slice_probe_input(as_probe_input(keys), lo, hi)
        if task_fn is _match_task:
            matches = spec.match(morsel_input)
            return matches.probe_indices, matches.build_indices
        return spec(morsel_input)

    def _drain(self, futures: Sequence[Future]) -> None:
        """Cancel pending tasks and briefly wait out running ones."""
        for future in futures:
            future.cancel()
        try:
            wait(list(futures), timeout=_DRAIN_SECONDS)
        except Exception:  # pragma: no cover - drain is best-effort
            pass

    def _run_morsels(self, task_fn, spec_ref, task_input, morsels, spec, keys) -> List[object]:
        """Dispatch every morsel, recovering from worker deaths.

        The gather is in submission order (bit-identity); the cancel token
        is checked before each result.  Worker crashes (``BrokenExecutor``)
        and transient worker-side failures (``ExecutionError`` subclasses,
        e.g. an injected ``shm.attach`` fault) trigger a pool respawn with
        backoff and a retry of the unfinished morsels; after
        :data:`MAX_TASK_RETRIES` rounds the remainder runs inline in the parent.
        """
        results: List[Optional[object]] = [None] * len(morsels)
        done = [False] * len(morsels)
        remaining = list(range(len(morsels)))
        rounds = 0
        while remaining:
            try:
                pool = _shared_pool(self.num_workers)
            except Exception:
                # Pool unavailable mid-query (e.g. injected process.pool
                # fault on respawn): finish inline rather than failing.
                break
            submitted = []
            retryable = False
            timed = self.trace_morsels
            try:
                for i in remaining:
                    submitted.append(
                        (i, pool.submit(task_fn, spec_ref, task_input, *morsels[i], timed))
                    )
            except (BrokenExecutor, RuntimeError):
                # A worker died while this round was still being submitted —
                # or another thread shut this pool down under us
                # (RuntimeError: "cannot schedule new futures after
                # shutdown"); gather what did get in, then retry the rest.
                retryable = True
                self.record.worker_crashes += 1
            try:
                for i, future in submitted:
                    self._check_cancel()
                    try:
                        payload = future.result()
                        if timed:
                            payload, seconds = payload
                            self.record.worker_batches += 1
                            self.record.worker_seconds += seconds
                        results[i] = payload
                        done[i] = True
                    except CancelledError:
                        # Another thread's shutdown/respawn cancelled our
                        # queued future before a worker picked it up; the
                        # morsel simply re-runs next round.
                        retryable = True
                        break
                    except (BrokenExecutor, ExecutionError, OSError) as error:
                        # A dead worker (all pending futures now fail) or a
                        # transient worker-side error: stop gathering this
                        # round and retry what is left.
                        retryable = True
                        self.record.worker_crashes += isinstance(error, (BrokenExecutor, OSError))
                        break
            except BaseException:
                # Timeout / cancellation / unexpected error: drain in-flight
                # tasks so no worker outlives the caller's segment cleanup.
                self._drain([future for _, future in submitted])
                raise
            remaining = [i for i in remaining if not done[i]]
            if not remaining:
                break
            if not retryable:  # pragma: no cover - defensive; result() raised
                break
            rounds += 1
            if rounds > MAX_TASK_RETRIES:
                break
            self.record.tasks_retried += len(remaining)
            time.sleep(min(0.05 * (2 ** (rounds - 1)), _RESPAWN_BACKOFF_CAP))
            _respawn_pool()
            if self.arena is not None:
                # Dead workers held attachments to published base columns;
                # verify the OS objects survived and drop any that did not
                # so the next publication recreates them.
                try:
                    self.arena.republish_missing()
                except Exception:  # pragma: no cover - verification is best-effort
                    pass
        if remaining:
            # Bounded retries exhausted (or no pool): bit-identical inline
            # fallback over the same spec and the same morsel slices.
            for i in remaining:
                self._check_cancel()
                lo, hi = morsels[i]
                if self.trace_morsels:
                    start = time.perf_counter()
                    results[i] = self._inline_task(task_fn, spec, keys, lo, hi)
                    self.record.worker_batches += 1
                    self.record.worker_seconds += time.perf_counter() - start
                else:
                    results[i] = self._inline_task(task_fn, spec, keys, lo, hi)
                self.record.inline_morsels += 1
        return results  # type: ignore[return-value]

    def _fan_out(self, task_fn, spec, keys, total: int):
        """Ship spec + input, run one task per morsel, gather in order.

        Returns the ordered list of worker results, or ``None`` when the
        spec (or input) cannot be shipped (caller runs inline instead).
        Transient segments are always unlinked — crash, timeout, or fault.
        """
        shipped = self._ship_spec(spec)
        if shipped is None:
            return None
        spec_segment, spec_ref = shipped
        segments = [spec_segment]
        try:
            try:
                input_segments, task_input = self._ship_input(keys)
                segments.extend(input_segments)
            except ExecutionError:
                # Publishing the input failed (e.g. injected shm.share
                # fault): recover by probing inline.
                return None
            morsels = self._morsels(total)
            self.record.morsels += len(morsels)
            return morsels, self._run_morsels(task_fn, spec_ref, task_input, morsels, spec, keys)
        finally:
            for segment in segments:
                shm.unlink_segment(segment)

    @staticmethod
    def _inline_keys(keys) -> ProbeInput:
        if isinstance(keys, ShmGather):
            return keys.materialize()
        return as_probe_input(keys)

    # -- ExecutionBackend API ----------------------------------------------
    def probe_mask(self, keys, probe_fn, prepare=None) -> np.ndarray:
        total = probe_input_rows(keys)
        if total <= self.morsel_size or self.num_workers == 1:
            self.record.morsels += 1
            self._check_cancel()
            return probe_fn(self._inline_keys(keys))
        # Freeze lazy probe structures BEFORE pickling so the shipped copy
        # is complete and workers only read.
        if prepare is not None:
            prepare()
        fanned = self._fan_out(_probe_task, probe_fn, keys, total)
        if fanned is None:
            self.record.morsels += 1
            return probe_fn(self._inline_keys(keys))
        _, parts = fanned
        return np.concatenate(parts)

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        probe_keys = np.asarray(probe_keys)
        total = int(probe_keys.shape[0])
        if total <= self.morsel_size or self.num_workers == 1:
            self.record.morsels += 1
            self._check_cancel()
            return index.match(probe_keys)
        index.prepare_match(total)
        fanned = self._fan_out(_match_task, index, probe_keys, total)
        if fanned is None:
            self.record.morsels += 1
            return index.match(probe_keys)
        morsels, results = fanned
        probe_parts = [probe + lo for (probe, _), (lo, _) in zip(results, morsels)]
        return JoinMatches(
            probe_indices=np.concatenate(probe_parts),
            build_indices=np.concatenate([build for _, build in results]),
        )

    def close(self) -> None:
        """Per-query no-op: the worker pool is module-shared (see above)."""
