"""Per-client session handles for the concurrent serving layer.

A :class:`Session` is a thin, cheap handle a client holds onto a
:class:`~repro.engine.server.Server`: it carries the client's default
execution mode/options and per-session counters (which the server's one
observation of each query bumps), and funnels every query through the
server's admission control.  Sessions are *not* transactional
— isolation is per query (each admitted query pins its own catalog
snapshot) — and a single session may be used from multiple threads; the
server serializes nothing per session, only global admission.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Union

from repro.engine.modes import ExecutionMode
from repro.errors import ReproError
from repro.query import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import ExecutionOptions, ExplainAnalyzeResult, ExplainResult, QueryResult
    from repro.engine.server import Server


class Session:
    """One client's handle on a :class:`~repro.engine.server.Server`."""

    def __init__(
        self,
        server: "Server",
        session_id: int,
        name: Optional[str] = None,
        mode: Optional[ExecutionMode] = None,
        options: Optional["ExecutionOptions"] = None,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        self.default_mode = mode
        self.default_options = options
        self.queries_completed = 0
        self.queries_failed = 0
        self.queries_rejected = 0
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def sql(
        self,
        text: str,
        mode: Optional[ExecutionMode] = None,
        options: Optional["ExecutionOptions"] = None,
        name: Optional[str] = None,
    ) -> Union["QueryResult", "ExplainResult", "ExplainAnalyzeResult"]:
        """Compile and run one SQL statement through server admission."""
        return self._submit(text, mode, options, name)

    def execute(
        self,
        query: QuerySpec,
        mode: Optional[ExecutionMode] = None,
        options: Optional["ExecutionOptions"] = None,
    ) -> "QueryResult":
        """Run a pre-built :class:`QuerySpec` through server admission."""
        return self._submit(query, mode, options, None)

    def _submit(self, source, mode, options, name):
        if self._closed:
            raise ReproError(f"session {self.name!r} is closed")
        resolved_mode = mode or self.default_mode or ExecutionMode.RPT
        resolved_options = options or self.default_options
        return self.server._execute(self, source, resolved_mode, resolved_options, name)

    def _count(self, outcome: str) -> None:
        """Count one ended query (the server's observation of it calls this)."""
        with self._lock:
            if outcome == "ok":
                self.queries_completed += 1
            elif outcome == "rejected":
                self.queries_rejected += 1
            else:
                self.queries_failed += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Detach from the server; idempotent.  In-flight queries finish."""
        if self._closed:
            return
        self._closed = True
        self.server._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.name!r}, completed={self.queries_completed}, "
            f"rejected={self.queries_rejected})"
        )
