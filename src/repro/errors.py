"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can distinguish library failures from
programming mistakes (``TypeError``, ``KeyError`` escaping from NumPy, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A table, column, or datatype definition is invalid or inconsistent."""


class CatalogError(ReproError):
    """A catalog lookup failed or a registration conflicts with an existing entry."""


class PlanError(ReproError):
    """A logical or physical plan is malformed (e.g. disconnected join, missing input)."""


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class QueryTimeout(ReproError):
    """A query exceeded its ``timeout_seconds`` deadline.

    Carries the partial :class:`~repro.exec.statistics.ExecutionStats`
    accumulated up to the point of expiry in ``stats`` (``None`` when the
    deadline fired before any statistics existed).
    """

    def __init__(self, message: str, stats: "object | None" = None) -> None:
        self.stats = stats
        super().__init__(message)


class QueryCancelled(ReproError):
    """A query was cancelled through its :class:`~repro.exec.faults.CancelToken`.

    Like :class:`QueryTimeout`, carries the partial execution statistics in
    ``stats`` when available.
    """

    def __init__(self, message: str, stats: "object | None" = None) -> None:
        self.stats = stats
        super().__init__(message)


class BackendUnavailable(ExecutionError):
    """An execution backend could not be brought up (e.g. pool start failed).

    ``Database.execute`` catches this and walks the degradation ladder
    (parallel → serial) instead of failing the query.
    """


class FaultInjected(ExecutionError):
    """A deterministic fault fired at an injection site (see ``exec/faults.py``).

    Raised only when no recovery path exists for the site; a recoverable site
    (pool start) is translated into its real-world failure shape instead.
    """


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for the given query."""


class AcyclicityError(ReproError):
    """An operation that requires an acyclic query was invoked on a cyclic one."""


class SqlError(ReproError):
    """A SQL front-end failure: lexing, parsing, binding, or lowering.

    Carries the source text and the character offset of the offending
    position; ``str()`` renders the message with a ``line:column`` location
    and a caret (``^``) under the source position::

        unknown column 'prod_year' of table 'title' (line 2, column 18)
          WHERE t.prod_year > 1990
                  ^
    """

    def __init__(self, message: str, source: "str | None" = None, pos: "int | None" = None) -> None:
        self.message = message
        self.source = source
        self.pos = pos
        super().__init__(self.render())

    @property
    def line(self) -> "int | None":
        """1-based line number of the error position (None without source)."""
        if self.source is None or self.pos is None:
            return None
        return self.source.count("\n", 0, self.pos) + 1

    @property
    def column(self) -> "int | None":
        """1-based column number of the error position (None without source)."""
        if self.source is None or self.pos is None:
            return None
        return self.pos - self.source.rfind("\n", 0, self.pos)

    def render(self) -> str:
        """The full diagnostic: message, location, source line, and caret."""
        if self.source is None or self.pos is None:
            return self.message
        pos = min(max(self.pos, 0), len(self.source))
        line_start = self.source.rfind("\n", 0, pos) + 1
        line_end = self.source.find("\n", line_start)
        if line_end == -1:
            line_end = len(self.source)
        source_line = self.source[line_start:line_end]
        caret_indent = " " * (pos - line_start)
        return (
            f"{self.message} (line {self.line}, column {self.column})\n"
            f"  {source_line}\n"
            f"  {caret_indent}^"
        )


class AdmissionRejected(ReproError):
    """The serving layer declined to admit a query (typed backpressure).

    Raised by :class:`~repro.engine.server.Server` when the bounded
    admission queue is full, an admission wait times out, or the server is
    closed.  Carries a
    ``retry_after_seconds`` hint (derived from observed service latency
    and queue depth) so closed-loop clients can back off instead of
    hammering an overloaded server, plus a machine-readable ``reason``
    (``"queue_full"`` / ``"timeout"`` / ``"closed"``).
    """

    def __init__(
        self,
        message: str,
        retry_after_seconds: float = 0.1,
        reason: str = "overload",
    ) -> None:
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)
        self.reason = reason


class WorkloadError(ReproError):
    """A workload generator or query-set definition is invalid."""


class BenchmarkError(ReproError):
    """A benchmark harness configuration is invalid."""
