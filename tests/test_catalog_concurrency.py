"""Thread-safety hammers for the catalog and its snapshots.

These tests drive the MVCC-lite layer from many threads at once: readers
must never observe a torn catalog entry, and snapshots must keep replaced
versions alive until the last reader releases them. Failures here are the
classic symptoms — ``KeyError`` escaping a lookup, a read against a freed
version, pin/retain counters that do not return to zero.

Removed with the block-encoding stack: ``test_invalidation_races_encoded_lookup``
(the encoding store's lookups racing its invalidation).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database
from repro.engine.database import ExecutionOptions
from repro.engine.modes import ExecutionConfig
from repro.errors import CatalogError
from repro.storage import Catalog, Table

N_THREADS = 8
N_ITERS = 60


def _table(name: str, generation: int, rows: int = 256) -> Table:
    rng = np.random.default_rng(generation)
    return Table.from_dict(
        name,
        {
            "id": np.arange(rows, dtype=np.int64),
            "generation": np.full(rows, generation, dtype=np.int64),
            "v": rng.integers(0, 100, rows).astype(np.int64),
        },
        primary_key=["id"],
    )


def _run_threads(targets):
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - hammer collects everything
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestCatalogHammer:
    def test_register_replace_races_lookup(self):
        """Writers replacing a table never tear concurrent readers."""
        catalog = Catalog()
        catalog.register(_table("t", 0))
        stop = threading.Event()

        def writer():
            for generation in range(1, N_ITERS + 1):
                catalog.register(_table("t", generation), replace=True)
            stop.set()

        def reader():
            while not stop.is_set():
                table = catalog.table("t")
                # A torn entry would mix generations between the column data
                # and the statistics/version bookkeeping.
                generations = np.unique(table.column("generation").data)
                assert len(generations) == 1
                assert catalog.version("t") >= 1 or generations[0] == 0
                stats = catalog.statistics("t")
                assert stats.num_rows == table.num_rows

        errors = _run_threads([writer] + [reader] * (N_THREADS - 1))
        assert not errors, errors
        assert catalog.version("t") == N_ITERS + 1
        assert catalog.table("t").column("generation").data[0] == N_ITERS

    def test_snapshot_pin_release_hammer(self):
        """Concurrent pin/replace/release converges to zero pins and retained versions."""
        catalog = Catalog()
        catalog.register(_table("t", 0))

        def writer():
            for generation in range(1, N_ITERS + 1):
                catalog.register(_table("t", generation), replace=True)

        def pinner():
            for _ in range(N_ITERS):
                with catalog.snapshot(["t"]) as snap:
                    table = snap.table("t")
                    # The snapshot must keep serving the pinned version even
                    # while the writer replaces it underneath.
                    assert snap.version("t") <= catalog.version("t")
                    assert table.column("generation").data[0] == table.column(
                        "generation"
                    ).data[-1]

        errors = _run_threads([writer] + [pinner] * (N_THREADS - 1))
        assert not errors, errors
        assert catalog.pinned_version_count() == 0
        assert catalog.retained_version_count() == 0

    def test_snapshot_outlives_replace_and_releases_retained_version(self):
        catalog = Catalog()
        catalog.register(_table("t", 0))
        snap = catalog.snapshot(["t"])
        catalog.register(_table("t", 1), replace=True)
        # The replaced version stays retained while the snapshot reads it.
        assert catalog.retained_version_count() == 1
        assert snap.table("t").column("generation").data[0] == 0
        assert catalog.table("t").column("generation").data[0] == 1
        snap.release()
        snap.release()  # idempotent
        assert catalog.pinned_version_count() == 0
        assert catalog.retained_version_count() == 0
        with pytest.raises(CatalogError, match="not in this snapshot"):
            snap.table("other")

    def test_unregister_while_pinned_retains_until_release(self):
        catalog = Catalog()
        catalog.register(_table("t", 7))
        snap = catalog.snapshot(["t"])
        catalog.unregister("t")
        assert not catalog.has_table("t")
        assert snap.table("t").column("generation").data[0] == 7
        snap.release()
        assert catalog.retained_version_count() == 0

    def test_invalidation_races_filter_evaluation(self):
        """Replacing a table mid-query stays bit-identical.

        The writer re-registers identical data, so whichever version a
        racing query lands on, its result must equal the baseline — any
        divergence means filter evaluation read a torn or stale version.
        """
        db = Database()
        rows = 4096
        data = {
            "id": np.arange(rows, dtype=np.int64),
            "grp": (np.arange(rows, dtype=np.int64) % 13),
            "v": (np.arange(rows, dtype=np.int64) * 31 % 997),
        }
        db.register_dataframe("t", data, primary_key=["id"])
        options = ExecutionOptions(execution=ExecutionConfig(backend="serial"))
        text = "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE grp < 7 AND v > 100"
        baseline = db.sql(text, options=options)
        stop = threading.Event()

        def writer():
            for _ in range(20):
                db.register_dataframe("t", data, primary_key=["id"], replace=True)
            stop.set()

        def reader():
            while not stop.is_set():
                result = db.sql(text, options=options)
                assert result.aggregates == baseline.aggregates

        errors = _run_threads([writer] + [reader] * (N_THREADS - 1))
        assert not errors, errors
        assert db.catalog.pinned_version_count() == 0
        assert db.catalog.retained_version_count() == 0
        db.close()
