"""Hierarchical execution traces with an injectable monotonic clock.

A :class:`Tracer` records one tree of :class:`Span`\\ s per query:

.. code-block:: text

    query tpch_q3
      phase scan_filter
        op scan
        op filter_push
      phase transfer
        op bloom_build
        op bloom_probe
          batch morsels            <- one summary span per fanned-out op
      ...

Spans carry wall-clock timestamps from the tracer's clock.  The clock is
injectable (``Tracer(clock=fake)``) so tests can assert exact timings and
deterministic tree shapes; the default is :func:`time.perf_counter`.

Tracing is strictly additive: the tracer observes executions, it never
participates in them, so a traced run is bit-identical to an untraced one.
Spans of one query are produced by one thread (the executor's op loop);
morsel-level work inside an op is aggregated into a single ``batch``
child.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed node of a trace tree."""

    name: str
    #: Coarse node type: ``"query"``, ``"phase"``, ``"op"``, ``"batch"``,
    #: or ``"event"`` (zero-duration point annotation).
    kind: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Span duration (0.0 for events and unfinished spans)."""
        return max(self.end - self.start, 0.0)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> List["Span"]:
        """Every descendant span (including self) of the given kind."""
        return [span for span in self.walk() if span.kind == kind]

    def shape(self) -> Tuple:
        """The timing-free tree shape ``(kind, name, child shapes)``.

        Two runs of the same query on the same backend produce equal
        shapes — the determinism tests compare these, not timestamps.
        """
        return (self.kind, self.name, tuple(child.shape() for child in self.children))

    def as_dict(self) -> dict:
        """JSON-ready representation of the subtree."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }


class Tracer:
    """Builds one :class:`Span` tree; spans nest via an explicit stack.

    The tracer is single-query, single-thread: the engine creates one per
    traced execution and threads it down the call tree.  ``clock`` must be
    monotonic; tests inject counters to make timings deterministic.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.root: Optional[Span] = None
        self._stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, kind: str, **attrs: object) -> Span:
        """Open a span as a child of the current one (or as the root)."""
        span = Span(name=name, kind=kind, start=self._clock(), attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # A second top-level span (e.g. a retry after a typed error):
            # keep one root by re-parenting under the first.
            self.root.children.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span, **attrs: object) -> Span:
        """Close ``span`` (and any unclosed children), stamping its end."""
        end = self._clock()
        while self._stack:
            top = self._stack.pop()
            top.end = end
            if top is span:
                break
        span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, kind: str, **attrs: object) -> Iterator[Span]:
        """Context-managed :meth:`start`/:meth:`finish` pair."""
        span = self.start(name, kind, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def event(self, name: str, **attrs: object) -> Span:
        """A zero-duration annotation attached to the current span."""
        now = self._clock()
        span = Span(name=name, kind="event", start=now, end=now, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is not None:
            self.root.children.append(span)
        else:
            self.root = span
        return span

    def annotate(self, **attrs: object) -> None:
        """Merge attributes into the current span (no-op outside spans)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)
