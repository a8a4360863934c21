"""Execution backends: how the probe/match hot loops of the pipeline run.

One class implements them, :class:`MorselBackend`: probe inputs
are cut into morsels, each morsel runs the same vectorized NumPy kernel, and
the parts are concatenated in order, so every result is bit-identical to one
whole-column call.  :func:`make_backend` exposes two presets of it:
``"serial"`` (one thread, whole column — the default) and ``"parallel"`` (a
``ThreadPoolExecutor`` over :data:`DEFAULT_MORSEL_SIZE`-row morsels; the
kernels release the GIL on large inputs).

The parallel preset reads its morsel size from the module constant when a
backend is made; nothing configures it per query.  A *probe input* is one key
array or a tuple of aligned per-row arrays; the helpers here cut and count
them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import BackendUnavailable, ExecutionError
from repro.exec import faults
from repro.exec.faults import CancelToken
from repro.exec.kernels import HashIndex, JoinMatches
from repro.exec.statistics import OpStats

#: The names :func:`make_backend` accepts.
BACKEND_NAMES = ("serial", "parallel")

#: Threads the parallel backend uses when not configured explicitly: one per
#: CPU, capped at the paper testbed's 32.
MAX_DEFAULT_THREADS = 32

#: DuckDB's push-based engine processes data in fixed-size *data chunks* of
#: 2048 tuples (its vector size), and the Figure 14 model caps a pipeline's
#: parallelism by the number of such chunks its probe side provides.
DEFAULT_CHUNK_SIZE = 2048

#: Morsel granularity of the parallel preset.  Larger than a DuckDB chunk:
#: each morsel must carry enough work to amortize task dispatch in pure
#: Python.
DEFAULT_MORSEL_SIZE = 32_768


def num_chunks(total_rows: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of chunks needed for ``total_rows`` rows."""
    if total_rows <= 0:
        return 0
    return (total_rows + chunk_size - 1) // chunk_size


#: A probe input: one key array, or a tuple of equal-length per-row arrays
#: (e.g. a precomputed (hashes, patterns) pair).  Backends slice every
#: component identically when cutting morsels, so a probe function receives
#: aligned slices.
ProbeInput = Union[np.ndarray, Tuple[np.ndarray, ...]]


def as_probe_input(keys: ProbeInput) -> ProbeInput:
    """``keys`` with every component as an ndarray."""
    if isinstance(keys, tuple):
        return tuple(np.asarray(part) for part in keys)
    return np.asarray(keys)


def probe_rows(keys: ProbeInput) -> int:
    """Row count of a normalized probe input."""
    if isinstance(keys, tuple):
        return int(keys[0].shape[0])
    return int(keys.shape[0])


def slice_probe_input(keys: ProbeInput, lo: int, hi: int) -> ProbeInput:
    """Rows ``[lo, hi)`` of every component."""
    if isinstance(keys, tuple):
        return tuple(part[lo:hi] for part in keys)
    return keys[lo:hi]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
#: Rows per cancellation check of the whole-column preset when a cancel token
#: is installed.  Large enough that the cutting cost is noise, small enough
#: that a deadline is honored promptly on big columns.
SERIAL_CANCEL_CHUNK = 1 << 18


class MorselBackend:
    """The probe/match hot loops of the pipeline executor: cut the probe
    input, run, concatenate.

    Probe inputs longer than ``morsel_size`` rows are cut into morsels; each
    runs through the same vectorized kernel, and the parts are concatenated
    in order (match results with their morsel's row offset added), so every
    result is byte-equal to the whole-column call.  With ``num_threads > 1``
    the morsels go to a ``ThreadPoolExecutor`` — the NumPy probe kernels
    release the GIL on large arrays, so they genuinely overlap — after the
    lazily-built probe structures are frozen (``prepare`` /
    ``HashIndex.prepare_match``) so workers only read shared state.  The
    pool is created by :meth:`ensure_ready` / on first use and released by
    :meth:`close` (the engine does both per execution).

    ``morsel_size=None`` is the whole-column preset: one kernel call per
    probe and no morsel accounting.  It cuts — at
    :data:`SERIAL_CANCEL_CHUNK` rows — only while a cancel token is
    installed, so a deadline is checked inside long kernels.  Morsels are
    counted as they are dispatched (one by one on a single thread), so an op
    aborted mid-probe records how far it got.

    The backend counts the morsels it dispatches into ``record``: its own
    tally when used stand-alone, the open op's
    :class:`~repro.exec.statistics.OpStats` while an executor drives it.
    """

    def __init__(self, num_threads: int = 1, morsel_size: Optional[int] = None) -> None:
        if num_threads <= 0:
            raise ExecutionError("morsel backend needs at least one thread")
        if morsel_size is not None and morsel_size <= 0:
            raise ExecutionError("morsel size must be positive")
        self.num_threads = num_threads
        self.morsel_size = morsel_size
        self._pool: Optional[ThreadPoolExecutor] = None
        self.record = OpStats(index=-1, kind="backend")
        #: Cooperative cancellation token installed by the engine for the
        #: current query (None: no deadline, no cancel).  Checked at morsel
        #: gather barriers and at chunk granularity inside long kernels.
        self.cancel: Optional[CancelToken] = None

    @property
    def tasks_dispatched(self) -> int:
        """Morsels dispatched into the current ``record``."""
        return self.record.morsels

    def _check_cancel(self) -> None:
        if self.cancel is not None:
            self.cancel.check()

    def _pool_instance(self) -> ThreadPoolExecutor:
        if self._pool is None:
            faults.fire("parallel.pool", "injected thread-pool start failure")
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-morsel"
            )
        return self._pool

    def ensure_ready(self) -> None:
        """Bring up the thread pool before the first op.

        Raises :class:`~repro.errors.BackendUnavailable` when it cannot
        start — the engine's degradation ladder catches that and falls back
        to the serial preset, which needs no pool.
        """
        if self.num_threads == 1:
            return
        try:
            self._pool_instance()
        except Exception as error:
            raise BackendUnavailable(f"thread pool unavailable: {error}") from error

    def _run(self, tasks: List[Callable[[], object]], counted: bool = True) -> List[object]:
        if len(tasks) <= 1 or self.num_threads == 1:
            results = []
            for task in tasks:
                self._check_cancel()
                self.record.morsels += counted
                results.append(task())
            return results
        self.record.morsels += counted * len(tasks)
        pool = self._pool_instance()
        futures = [pool.submit(task) for task in tasks]
        # Gathered in submission order — what makes the pool bit-identical
        # to serial — with the cancel token checked before each result; on
        # expiry the morsels not yet started are cancelled.
        try:
            results = []
            for future in futures:
                self._check_cancel()
                results.append(future.result())
            return results
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def _morsels(self, total_rows: int) -> Optional[List[Tuple[int, int]]]:
        """The ``[lo, hi)`` cuts of a probe input; ``None``: run it whole."""
        size = self.morsel_size or SERIAL_CANCEL_CHUNK
        self._check_cancel()
        if total_rows <= size:
            if self.morsel_size is not None:
                self.record.morsels += num_chunks(total_rows, size)
            return None
        return [(lo, min(lo + size, total_rows)) for lo in range(0, total_rows, size)]

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        """Evaluate ``probe_fn`` (probe input -> boolean mask) over ``keys``.

        ``keys`` is a key array or a tuple of aligned per-row arrays (a
        precomputed hash/pattern pass); morsels slice every component
        identically.  ``prepare`` (optional thunk) freezes lazily-built probe
        structures for concurrent read-only access; it runs only when the
        input is cut.
        """
        if self.morsel_size is None and self.cancel is None:
            return probe_fn(keys)
        keys = as_probe_input(keys)
        morsels = self._morsels(probe_rows(keys))
        if morsels is None:
            return probe_fn(keys)
        if prepare is not None:
            prepare()
        return np.concatenate(
            self._run(
                [
                    (lambda lo=lo, hi=hi: probe_fn(slice_probe_input(keys, lo, hi)))
                    for lo, hi in morsels
                ],
                counted=self.morsel_size is not None,
            )
        )

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        """Match probe keys against a build-side index."""
        if self.morsel_size is None and self.cancel is None:
            return index.match(probe_keys)
        probe_keys = np.asarray(probe_keys)
        morsels = self._morsels(int(probe_keys.shape[0]))
        if morsels is None:
            return index.match(probe_keys)
        index.prepare_match(int(probe_keys.shape[0]))
        results = self._run(
            [(lambda lo=lo, hi=hi: index.match(probe_keys[lo:hi])) for lo, hi in morsels],
            counted=self.morsel_size is not None,
        )
        return JoinMatches(
            probe_indices=np.concatenate(
                [m.probe_indices + lo for m, (lo, _) in zip(results, morsels)]
            ),
            build_indices=np.concatenate([m.build_indices for m in results]),
        )

    def close(self) -> None:
        """Release the thread pool; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(name: str, num_threads: Optional[int] = None) -> MorselBackend:
    """Instantiate a backend by name: ``"serial"`` or ``"parallel"``.

    Both are presets of :class:`MorselBackend`: one thread over the whole
    column, and ``num_threads`` (``None``: one per CPU, capped at
    :data:`MAX_DEFAULT_THREADS`) over :data:`DEFAULT_MORSEL_SIZE`-row
    morsels.  The morsel size is read when the backend is made.
    """
    if name == "serial":
        return MorselBackend()
    if name == "parallel":
        return MorselBackend(
            num_threads=(
                min(MAX_DEFAULT_THREADS, os.cpu_count() or 1)
                if num_threads is None
                else num_threads
            ),
            morsel_size=DEFAULT_MORSEL_SIZE,
        )
    raise ExecutionError(
        f"unknown pipeline backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
