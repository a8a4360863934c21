"""The benchmark's own spans, recorded around the calls into each layer.

One span per layer call: id, parent, the op it belongs to, layer, name,
start, end, and the counts taken at that boundary.  Spans stay in memory
during the traced round and are written out once, at exit.  A span's *self
time* is its duration minus the part of that interval its children cover,
so a layer never gets billed for the layers it calls.

The engine's own span tree (``ExecutionConfig(tracing=True)``) uses the same
clock, so :meth:`Recorder.graft` can hang it under the benchmark's
``exec.execute`` span without touching the program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: Optional[str]
    layer: str
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 0.0)


class Recorder:
    """Collects spans from one thread; nesting follows the ``with`` blocks."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def _open(self, layer: str, name: str, op: Optional[str], start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            op=op if op is not None else (parent.op if parent else None),
            layer=layer,
            name=name,
            start=start,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self, layer: str, name: str, op: Optional[str] = None, **counts: float
    ) -> Iterator[Span]:
        span = self._open(layer, name, op, self._clock())
        span.counts.update(counts)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._clock()

    def graft(self, engine_span, layer: str = "exec") -> None:
        """Copy an engine span tree (``name/kind/start/end/attrs/children``)
        under the currently open span, keeping its timestamps."""
        parent = self._stack[-1] if self._stack else None

        def copy(node, parent_id: Optional[int]) -> None:
            span = Span(
                id=len(self.spans),
                parent=parent_id,
                op=parent.op if parent else None,
                layer=layer,
                name=f"{node.kind}.{node.name}" if node.kind != "query" else "query",
                start=node.start,
                end=node.end,
                counts={
                    key: value
                    for key, value in node.attrs.items()
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                },
            )
            self.spans.append(span)
            for child in node.children:
                copy(child, span.id)

        copy(engine_span, parent.id if parent else None)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the interval its children cover."""
        return self_seconds(self.spans)

    def totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``(layer, name)`` -> summed seconds, self seconds, calls, counts."""
        own = self.self_seconds()
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                (span.layer, span.name),
                {"seconds": 0.0, "self_seconds": 0.0, "calls": 0, "max_seconds": 0.0},
            )
            row["seconds"] += span.seconds
            row["self_seconds"] += own[span.id]
            row["calls"] += 1
            row["max_seconds"] = max(row["max_seconds"], span.seconds)
            for key, value in span.counts.items():
                row[f"count.{key}"] = row.get(f"count.{key}", 0) + value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Self time per span: duration minus the union of its children's
    intervals, clipped to the span (children may overlap or overhang)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = max(span.seconds - covered, 0.0)
    return result
