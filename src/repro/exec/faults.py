"""Deterministic fault injection and cooperative cancellation.

The fault-tolerance layer (the degradation ladder in ``Database.execute``,
spill-then-retry under the memory governor) is only trustworthy if every
recovery path can be exercised on demand.  This module provides that: a
seeded :class:`FaultPlan` names *sites* in the runtime (``parallel.pool``,
``spill.write``, ...) and a rate, and the :class:`FaultInjector` decides —
purely from ``(seed, site, occurrence counter)`` — whether each occurrence
fires.  Same plan, same execution → same faults, every time.

Sites currently wired into the runtime:

==================  =========================================================
site                effect when it fires
==================  =========================================================
``parallel.pool``   starting the thread pool fails (``BackendUnavailable``)
``spill.write``     the spill handler's write raises (victim is restored)
``spill.read``      reloading a spilled reservation raises
``alloc.reserve``   a governor reservation raises ``MemoryExhausted``
``op.latency``      the operator sleeps ``latency`` seconds before running
==================  =========================================================

The plan is configured per-process via :func:`configure` (from
``ExecutionConfig.faults`` or the ``REPRO_FAULTS`` environment variable).

:class:`CancelToken` lives here as well: the cooperative deadline /
cancellation primitive checked at morsel-gather barriers and inside long
kernels at chunk granularity.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FaultInjected, QueryCancelled, QueryTimeout

#: Environment variable holding the fault-plan spec for this process.
ENV_FAULTS = "REPRO_FAULTS"

#: All sites the runtime consults — ``FaultPlan.parse`` validates against this.
KNOWN_SITES = (
    "parallel.pool",
    "spill.write",
    "spill.read",
    "alloc.reserve",
    "op.latency",
)


def _mix64(value: int) -> int:
    """splitmix64 finalizer — the same mixer the hash kernels use."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _site_key(site: str) -> int:
    """A stable 64-bit key for a site name.

    ``hash(str)`` is randomized per interpreter (PYTHONHASHSEED), which would
    make one plan fire differently from run to run — fold the bytes instead.
    """
    key = 0
    for byte in site.encode("utf-8"):
        key = _mix64(key ^ byte)
    return key


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule: which sites may fire, how often.

    ``spec()`` round-trips through :meth:`parse`, so the plan can be carried
    in an environment variable unchanged.
    """

    seed: int = 0
    rate: float = 0.0
    sites: Tuple[str, ...] = ()  # empty = every known site
    latency: float = 0.0  # seconds slept when ``op.latency`` fires

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse ``"seed:1234,rate:0.05[,sites:a|b][,latency:0.01]"``."""
        seed, rate, sites, latency = 0, 0.0, (), 0.0
        text = spec.strip()
        if not text:
            return FaultPlan()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise FaultInjected(f"malformed fault-plan entry {item!r} in {spec!r}")
            key, _, value = item.partition(":")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "rate":
                    rate = float(value)
                elif key == "latency":
                    latency = float(value)
                elif key == "sites":
                    sites = tuple(s.strip() for s in value.split("|") if s.strip())
                else:
                    raise FaultInjected(
                        f"unknown fault-plan key {key!r} in {spec!r} "
                        f"(expected seed/rate/sites/latency)"
                    )
            except ValueError as error:
                raise FaultInjected(
                    f"bad fault-plan value {value!r} for {key!r} in {spec!r}"
                ) from error
        for site in sites:
            if site not in KNOWN_SITES:
                raise FaultInjected(
                    f"unknown fault site {site!r} in {spec!r} "
                    f"(known: {', '.join(KNOWN_SITES)})"
                )
        if not 0.0 <= rate <= 1.0:
            raise FaultInjected(f"fault rate must be in [0, 1], got {rate} in {spec!r}")
        return FaultPlan(seed=seed, rate=rate, sites=sites, latency=latency)

    def spec(self) -> str:
        """The canonical spec string (``parse(plan.spec()) == plan``)."""
        parts = [f"seed:{self.seed}", f"rate:{self.rate}"]
        if self.sites:
            parts.append("sites:" + "|".join(self.sites))
        if self.latency:
            parts.append(f"latency:{self.latency}")
        return ",".join(parts)

    def covers(self, site: str) -> bool:
        """Whether this plan may ever fire at ``site``."""
        return self.rate > 0.0 and (not self.sites or site in self.sites)


@dataclass
class FaultInjector:
    """Decides, deterministically, whether each occurrence of a site fires.

    Each site keeps its own occurrence counter; occurrence ``n`` of ``site``
    fires iff ``mix(seed, site, n)`` maps below ``rate`` in [0, 1).  The
    counters advance on every consult, so a fixed plan replayed over a fixed
    execution fires at exactly the same points.
    """

    plan: FaultPlan
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-site counts of occurrences that actually fired (observability:
    #: surfaced through :func:`injection_counts` into serving metrics).
    fired: Dict[str, int] = field(default_factory=dict)

    def should_fire(self, site: str) -> bool:
        """Consume one occurrence of ``site``; True if the fault fires."""
        if not self.plan.covers(site):
            return False
        count = self.counters.get(site, 0)
        self.counters[site] = count + 1
        mixed = _mix64((self.plan.seed & 0xFFFFFFFFFFFFFFFF) ^ _site_key(site) ^ count)
        hit = (mixed / 2.0**64) < self.plan.rate
        if hit:
            self.fired[site] = self.fired.get(site, 0) + 1
        return hit

    def fire(self, site: str, message: Optional[str] = None) -> None:
        """Raise :class:`FaultInjected` if ``site`` fires on this occurrence."""
        if self.should_fire(site):
            raise FaultInjected(message or f"injected fault at site:{site}")

    def latency(self, site: str = "op.latency") -> float:
        """Seconds of artificial latency for this occurrence (0.0 = none)."""
        if self.plan.latency <= 0.0:
            return 0.0
        return self.plan.latency if self.should_fire(site) else 0.0


# ---------------------------------------------------------------------------
# Per-process active injector
# ---------------------------------------------------------------------------
_INJECTOR: Optional[FaultInjector] = None
_CONFIGURED = False


def configure(spec: Optional[str]) -> Optional[FaultInjector]:
    """Install the process-wide fault injector from a spec string.

    ``None`` / empty spec clears injection.  Reconfiguring with the same
    spec restarts the occurrence counters, which is what reproducibility
    wants: one configure call per sweep, counters advancing across queries.
    """
    global _INJECTOR, _CONFIGURED
    _CONFIGURED = True
    if not spec:
        _INJECTOR = None
        return None
    plan = FaultPlan.parse(spec)
    if plan.rate <= 0.0:
        _INJECTOR = None
        return None
    _INJECTOR = FaultInjector(plan=plan)
    return _INJECTOR


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector (lazily configured from ``REPRO_FAULTS``)."""
    global _CONFIGURED
    if not _CONFIGURED:
        configure(os.environ.get(ENV_FAULTS))
    return _INJECTOR


def clear() -> None:
    """Remove the active injector and forget the env was ever consulted."""
    global _INJECTOR, _CONFIGURED
    _INJECTOR = None
    _CONFIGURED = False


def should_fire(site: str) -> bool:
    """Module-level convenience: consult the active injector for ``site``."""
    injector = active_injector()
    return injector is not None and injector.should_fire(site)


def fire(site: str, message: Optional[str] = None) -> None:
    """Module-level convenience: raise if ``site`` fires on this occurrence."""
    injector = active_injector()
    if injector is not None:
        injector.fire(site, message)


def injected_latency() -> float:
    """Artificial operator latency for this occurrence (0.0 without a plan)."""
    injector = active_injector()
    return injector.latency() if injector is not None else 0.0


def injection_counts() -> Dict[str, int]:
    """Per-site counts of faults the active injector has fired.

    Empty without an active injector.  Reads the module state directly
    (no lazy env configure) so metrics sampling never changes injection
    behaviour.
    """
    injector = _INJECTOR
    return dict(injector.fired) if injector is not None else {}


# ---------------------------------------------------------------------------
# Cooperative cancellation
# ---------------------------------------------------------------------------
class CancelToken:
    """A deadline plus a manual cancel flag, checked cooperatively.

    The executor checks the token between operators; the serial backend
    checks it at chunk granularity inside long kernels; the parallel backend
    checks it before gathering each morsel result.
    ``check()`` raises :class:`~repro.errors.QueryTimeout` (deadline) or
    :class:`~repro.errors.QueryCancelled` (manual ``cancel()``), whichever
    tripped first.
    """

    __slots__ = ("deadline", "timeout_seconds", "_cancelled")

    def __init__(self, timeout_seconds: Optional[float] = None) -> None:
        self.timeout_seconds = timeout_seconds
        self.deadline = (
            time.monotonic() + timeout_seconds if timeout_seconds is not None else None
        )
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation; the next ``check()`` raises ``QueryCancelled``."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        """Whether the deadline has passed (False without a deadline)."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (clamped at 0), or None without one."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def check(self) -> None:
        """Raise if cancelled or past the deadline; otherwise return."""
        if self._cancelled:
            raise QueryCancelled("query cancelled")
        if self.expired():
            raise QueryTimeout(
                f"query exceeded its {self.timeout_seconds}s deadline"
            )
