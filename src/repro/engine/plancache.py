"""Plan cache for the serving layer: normalized SQL text -> join plan.

The :mod:`repro.sql.format` round-trip formatter gives a free normal form:
two statements that differ only in whitespace, case, or clause ordering
lower to equal :class:`~repro.query.QuerySpec` objects and therefore
render to the *same* canonical text.  The cache keys on that text plus the
execution mode and the per-table catalog versions the query was admitted
against — no execution option changes the chosen plan — so a
``register(..., replace=True)`` bumps a version and every cached plan over
the old data simply misses (no invalidation race to get wrong), while the
stale entry ages out of the LRU.

Only the :class:`~repro.plan.join_plan.JoinPlan` is cached — masks and the
physical plan depend on live column data, and the join plan is the one
planning product whose recomputation costs real optimizer time.  Any join
plan is *correct* for its query (execution validates it), so even a
hypothetical stale hit could change performance, never results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.plan.join_plan import JoinPlan

DEFAULT_PLAN_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one cached plan."""

    #: Canonical SQL text (``to_sql(spec, include_name=False)``).
    text: str
    #: Execution mode value (plans differ across transfer strategies).
    mode: str
    #: The pinned ``(table, version)`` pairs the query planned against.
    versions: Tuple[Tuple[str, int], ...]


class PlanCache:
    """A thread-safe LRU of :class:`JoinPlan` keyed by :class:`PlanCacheKey`."""

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("plan cache must allow at least one entry")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PlanCacheKey, JoinPlan]" = OrderedDict()

    def get(self, key: PlanCacheKey) -> Optional[JoinPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: PlanCacheKey, plan: JoinPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def invalidate_table(self, name: str) -> int:
        """Eagerly drop entries planned over any version of ``name``.

        Version-keyed lookups already miss after a replace; this just
        reclaims the slots.  Returns how many entries were dropped.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if any(table == name for table, _ in key.versions)
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
