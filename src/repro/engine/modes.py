"""Execution modes: the systems compared throughout the paper's evaluation.

* ``BASELINE``   — plain binary hash joins in the chosen join order
  (vanilla DuckDB in the paper).
* ``BLOOM_JOIN`` — baseline plus a per-join Bloom filter passed from the
  build side to the probe side (classic sideways information passing).
* ``PT``         — the original Predicate Transfer: Small2Large transfer
  graph, Bloom-filter transfer phase, then the join phase.
* ``RPT``        — Robust Predicate Transfer: LargestRoot join tree,
  Bloom-filter transfer phase, then the join phase.  The paper's
  contribution.
* ``YANNAKAKIS`` — exact (hash-based) semi-join reduction over the
  LargestRoot join tree; the classical algorithm PT/RPT approximate.

Every mode compiles into the same :class:`~repro.plan.physical.PhysicalPlan`
op vocabulary; the property flags below drive that compilation:

==============  ==============  ============  ===============  =============
mode            transfer phase  Bloom xfer    exact semi-join  per-join SIP
==============  ==============  ============  ===============  =============
``BASELINE``    no              no            no               no
``BLOOM_JOIN``  no              no            no               yes
``PT``          yes             yes           no               no
``RPT``         yes             yes           no               no
``YANNAKAKIS``  yes             no            yes              no
==============  ==============  ============  ===============  =============
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Any, Callable, Optional, Tuple

from repro.errors import ExecutionError
from repro.exec.backends import BACKEND_NAMES


class ExecutionMode(enum.Enum):
    """Which join-processing strategy the engine uses for a query."""

    BASELINE = "baseline"
    BLOOM_JOIN = "bloom_join"
    PT = "pt"
    RPT = "rpt"
    YANNAKAKIS = "yannakakis"

    @property
    def uses_transfer_phase(self) -> bool:
        """True for modes that run a semi-join / Bloom transfer phase."""
        return self in (ExecutionMode.PT, ExecutionMode.RPT, ExecutionMode.YANNAKAKIS)

    @property
    def uses_bloom_filters(self) -> bool:
        """True for modes whose transfer phase uses Bloom filters (not exact semi-joins)."""
        return self in (ExecutionMode.PT, ExecutionMode.RPT)

    @property
    def uses_exact_semijoins(self) -> bool:
        """True for modes whose transfer phase is exact (no false positives)."""
        return self is ExecutionMode.YANNAKAKIS

    @property
    def uses_per_join_bloom(self) -> bool:
        """True for the Bloom Join baseline (per-join SIP filters)."""
        return self is ExecutionMode.BLOOM_JOIN

    @property
    def label(self) -> str:
        """Display label used in reports (matches the paper's legend)."""
        return {
            ExecutionMode.BASELINE: "DuckDB",
            ExecutionMode.BLOOM_JOIN: "Bloom Join",
            ExecutionMode.PT: "PT",
            ExecutionMode.RPT: "RPT",
            ExecutionMode.YANNAKAKIS: "Yannakakis",
        }[self]


#: Environment variables consulted when an :class:`ExecutionConfig` knob is
#: left unset — the CI backend matrix runs the whole suite under
#: ``REPRO_BACKEND=parallel`` without touching any call site.
ENV_BACKEND = "REPRO_BACKEND"
ENV_NUM_THREADS = "REPRO_NUM_THREADS"
ENV_ARTIFACT_CACHE = "REPRO_ARTIFACT_CACHE"
ENV_TIMEOUT_SECONDS = "REPRO_TIMEOUT_SECONDS"
ENV_FAULTS = "REPRO_FAULTS"
ENV_TRACE = "REPRO_TRACE"


def _parse_flag(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean (1/0, true/false, yes/no, on/off)")


def _check_backend(value: Any) -> None:
    if value not in BACKEND_NAMES:
        raise ValueError(f"expected one of {', '.join(BACKEND_NAMES)}")


def _check_flag(value: Any) -> None:
    if not isinstance(value, bool):
        raise ValueError("expected True or False")


def _check_worker_count(value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError("expected an integer >= 1")


def _check_timeout(value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError("expected a number of seconds")
    if not (math.isfinite(value) and value > 0):
        raise ValueError("expected a finite number of seconds > 0")


#: The environment-resolved knobs: ``(field, env var, parser, check, default)``.
#: A field left ``None`` takes the parsed variable when it is set and
#: non-empty, else the default; ``check`` then range-checks the value
#: whichever of the two it came from.  The one field not listed, ``faults``,
#: passes through unchanged — the fault injector consults ``REPRO_FAULTS``
#: itself, and ``faults=None`` means "don't override it".
KNOB_TABLE: Tuple[Tuple[str, str, Callable[[str], Any], Callable[[Any], None], Any], ...] = (
    ("backend", ENV_BACKEND, str, _check_backend, "serial"),
    ("num_threads", ENV_NUM_THREADS, int, _check_worker_count, None),
    ("artifact_cache", ENV_ARTIFACT_CACHE, _parse_flag, _check_flag, False),
    ("timeout_seconds", ENV_TIMEOUT_SECONDS, float, _check_timeout, None),
    ("tracing", ENV_TRACE, _parse_flag, _check_flag, False),
)


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime configuration of the execution stack (backend and resources).

    One object carries every knob the runtime layers consult so the bench
    harness can compare backends uniformly:

    * ``backend`` — ``"serial"`` (whole-column kernels) or ``"parallel"``
      (morsels dispatched to a thread pool): two presets of one in-process
      morsel backend, bit-identical to each other.
    * ``num_threads`` — worker threads of the parallel backend (``None``:
      one per CPU, capped at 32 like the paper's testbed).
    * ``artifact_cache`` — the cross-query
      :class:`~repro.storage.artifacts.ArtifactCache` memoizing built Bloom
      filters and frozen hash indexes across ``Database.execute`` calls
      (keyed by table version + filter fingerprint, LRU within a fixed
      64 MiB budget).  Default off: it buys time with resident memory
      (+12–21 % process RSS on the benchmark's workloads), which is the
      caller's trade.
    * ``timeout_seconds`` — query deadline: a
      :class:`~repro.exec.faults.CancelToken` is checked at morsel-gather
      barriers and at chunk granularity inside long kernels; expiry raises
      :class:`~repro.errors.QueryTimeout` carrying the partial stats
      (``None``: no deadline).
    * ``faults`` — deterministic fault-injection spec
      (``"seed:1234,rate:0.05[,sites:a|b][,latency:s]"``), see
      ``exec/faults.py``; ``None`` leaves the ``REPRO_FAULTS`` environment
      configuration in place.
    * ``tracing`` — record a hierarchical :class:`~repro.obs.trace.Span`
      tree (query → phase → physical op → morsel batch) on the
      :class:`~repro.engine.database.QueryResult` (default off; results
      are bit-identical either way, overhead is gated under 2% by the
      ``tracing_overhead`` microbenchmark case).

    What the executor decides from its input is not configurable: every
    compiled transfer step runs (only §4.3 pruning removes one); every
    transfer Bloom insert/probe replays one hashing pass per key column and
    run, and gathers probe keys by row id at the probe itself
    (:mod:`repro.exec.run_state`); one rule picks each transfer step's
    filter — an empty source empties its target, composite keys and dense
    integer key domains run exact, and only a PT/RPT step over a sparse
    single-attribute domain keeps a Bloom filter
    (:func:`~repro.exec.transfer_ops.step_filter`); a hash join over a
    bounded integer key domain matches through a direct-address table, any
    other through a sorted index; a relation that is still its whole table
    holds no row-id vector and hands out read-only views of the base
    columns, and every reduction compresses through ``flatnonzero`` +
    ``take`` (:mod:`repro.exec.relation`); the parallel preset's morsel
    size is a constant (32768 rows).

    Unset knobs (``backend=None`` etc.) resolve from the ``REPRO_*``
    environment variables of :data:`KNOB_TABLE`, then defaults — see
    :meth:`resolved`.
    """

    backend: Optional[str] = None
    num_threads: Optional[int] = None
    artifact_cache: Optional[bool] = None
    timeout_seconds: Optional[float] = None
    faults: Optional[str] = None
    tracing: Optional[bool] = None

    def resolved(self) -> "ExecutionConfig":
        """This config with unset knobs filled from the environment / defaults.

        An unparsable variable, or a value out of its knob's range — set on
        the field or through the variable — raises
        :class:`~repro.errors.ExecutionError` naming the field, and the
        variable and its text when it came from one.
        """
        values = {}
        for name, env, parse, check, default in KNOB_TABLE:
            value = getattr(self, name)
            origin = f"{name}={value!r}"
            if value is None:
                text = os.environ.get(env)
                if not text:
                    values[name] = default
                    continue
                origin = f"{name} (from {env}={text!r})"
            try:
                if value is None:
                    value = parse(text)
                check(value)
            except ValueError as error:
                raise ExecutionError(f"{origin} is invalid: {error}") from None
            values[name] = value
        return replace(self, **values)
