"""A thread-safe registry of counters, gauges, and fixed-bucket histograms.

The serving layer (:class:`~repro.engine.server.Server`) owns one
:class:`MetricsRegistry` and feeds it from every query: admission waits,
rejections by reason, per-query execution counters (spills, cache hits,
fault recoveries), and sampled component state (plan/artifact cache
sizes).  The registry renders to Prometheus-style text
via :func:`repro.obs.export.render_exposition`.

Design constraints:

* **Thread-safe** — one lock per registry; instruments are registered once
  and updated from many serving threads.
* **Label support** — instruments declare label *names* up front; each
  distinct label-value tuple materializes its own series, exactly like
  Prometheus children.
* **Fixed buckets** — histograms take their upper bounds at registration
  (cumulative ``le`` semantics, with ``+Inf`` implied); no dynamic
  resizing, so concurrent observes are one lock acquisition.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

_LabelValues = Tuple[str, ...]

#: Default admission/latency histogram buckets (seconds).
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ReproError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _series_key(name: str, labels: Sequence[str], values: _LabelValues) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in zip(labels, values))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared machinery: label handling + per-series storage."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labels: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.labels = tuple(labels)
        self._lock = threading.Lock()
        self._series: Dict[_LabelValues, float] = {}

    def _values(self, label_values: Dict[str, str]) -> _LabelValues:
        if set(label_values) != set(self.labels):
            raise ReproError(
                f"metric {self.name!r} expects labels {self.labels}, "
                f"got {tuple(sorted(label_values))}"
            )
        return tuple(str(label_values[name]) for name in self.labels)

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """``(suffix, labels, value)`` triples for exposition."""
        with self._lock:
            return [
                ("", dict(zip(self.labels, values)), value)
                for values, value in sorted(self._series.items())
            ]


class Counter(_Instrument):
    """A monotonically increasing value (per label combination)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease")
        key = self._values(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._values(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Gauge(_Instrument):
    """A point-in-time value that can move both ways."""

    type_name = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._values(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._values(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._values(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative ``le`` buckets and ``+Inf``."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {self.name!r} needs at least one bucket")
        self.bounds = bounds
        self._buckets: Dict[_LabelValues, List[int]] = {}
        self._sums: Dict[_LabelValues, float] = {}
        self._counts: Dict[_LabelValues, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._values(labels)
        with self._lock:
            counts = self._buckets.setdefault(key, [0] * len(self.bounds))
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._counts[key] = self._counts.get(key, 0) + 1

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        out: List[Tuple[str, Dict[str, str], float]] = []
        with self._lock:
            for key in sorted(self._counts):
                base = dict(zip(self.labels, key))
                counts = self._buckets[key]
                for bound, count in zip(self.bounds, counts):
                    out.append(("_bucket", {**base, "le": repr(bound)}, float(count)))
                out.append(("_bucket", {**base, "le": "+Inf"}, float(self._counts[key])))
                out.append(("_sum", base, self._sums[key]))
                out.append(("_count", base, float(self._counts[key])))
        return out


class MetricsRegistry:
    """Named instruments, registered once, safe to update concurrently.

    Re-registering an existing name returns the existing instrument when
    the type and labels agree (idempotent wiring) and raises otherwise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labels != tuple(
                    kwargs.get("labels", ())
                ):
                    raise ReproError(
                        f"metric {name!r} already registered with a different shape"
                    )
                return existing
            instrument = cls(name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labels=labels)

    def gauge(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labels=labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, buckets=buckets, labels=labels
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, float]:
        """Flat ``series name -> value`` map (histograms expand per bucket)."""
        out: Dict[str, float] = {}
        for instrument in self.instruments():
            for suffix, labels, value in instrument.samples():
                names = tuple(sorted(labels))
                key = _series_key(
                    instrument.name + suffix,
                    names,
                    tuple(labels[n] for n in names),
                )
                out[key] = value
        return out
