"""Bounded ring-buffer query log: one structured record per served query.

Every query a :class:`~repro.engine.server.Server` finishes — successfully,
with a typed error, or shed at admission — appends one
:class:`QueryLogRecord`.  The buffer is bounded (oldest records fall off),
thread-safe, and exportable as JSON lines, so "why was p99 slow an hour
ago?" has an answer that outlives the individual ``QueryResult``\\ s.

The ``sql_hash`` is computed over the round-trip SQL normal form (the same
normalization the plan cache keys on), so syntactic variants of one
statement shape share a hash while distinct shapes never collide in
practice.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

#: Default ring capacity; ~256 records is hours of traffic at bench scale.
DEFAULT_QUERY_LOG_ENTRIES = 256


def sql_hash(normalized_sql: str) -> str:
    """Stable short hash of a normalized SQL text ('' hashes to '')."""
    if not normalized_sql:
        return ""
    return hashlib.sha256(normalized_sql.encode("utf-8")).hexdigest()[:16]


@dataclass
class QueryLogRecord:
    """One query's structured log record (JSON-ready via :meth:`as_dict`)."""

    query_name: str = ""
    sql_hash: str = ""
    mode: str = ""
    backend: str = ""
    #: Physical-plan fingerprint: op kinds in execution order.
    plan_fingerprint: str = ""
    session: str = ""
    admission_wait_seconds: float = 0.0
    duration_seconds: float = 0.0
    output_rows: int = 0
    #: Wall seconds per physical-op kind (the per-op timing breakdown).
    op_seconds: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    adaptive: Dict[str, int] = field(default_factory=dict)
    #: Deduplicated degradation rungs -> occurrence counts.
    degradations: Dict[str, int] = field(default_factory=dict)
    #: ``"ok"`` or the typed error class name (``QueryTimeout``, ...).
    outcome: str = "ok"
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "query_name": self.query_name,
            "sql_hash": self.sql_hash,
            "mode": self.mode,
            "backend": self.backend,
            "plan_fingerprint": self.plan_fingerprint,
            "session": self.session,
            "admission_wait_seconds": self.admission_wait_seconds,
            "duration_seconds": self.duration_seconds,
            "output_rows": self.output_rows,
            "op_seconds": dict(self.op_seconds),
            "cache": dict(self.cache),
            "adaptive": dict(self.adaptive),
            "degradations": dict(self.degradations),
            "outcome": self.outcome,
            "error": self.error,
        }


class QueryLog:
    """Thread-safe bounded ring buffer of :class:`QueryLogRecord`\\ s."""

    def __init__(self, capacity: int = DEFAULT_QUERY_LOG_ENTRIES) -> None:
        if capacity <= 0:
            raise ValueError("query log capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: Deque[QueryLogRecord] = deque(maxlen=capacity)
        self._appended = 0

    def append(self, record: QueryLogRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._appended += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total_appended(self) -> int:
        """Records ever appended (including those the ring has dropped)."""
        with self._lock:
            return self._appended

    def records(self) -> List[QueryLogRecord]:
        """Oldest-to-newest copy of the retained records."""
        with self._lock:
            return list(self._records)

    def slowest(self, n: int = 3) -> List[QueryLogRecord]:
        """The ``n`` retained records with the longest durations."""
        return sorted(
            self.records(), key=lambda r: r.duration_seconds, reverse=True
        )[: max(n, 0)]

    def to_jsonl(self) -> str:
        """The retained records as JSON lines (one record per line)."""
        return "\n".join(json.dumps(record.as_dict()) for record in self.records())

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
