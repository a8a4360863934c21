"""Tests for the hash-once execution layer.

Covers the query-lifetime :class:`~repro.exec.hashcache.HashCache`, the
precomputed-hash kernel APIs (Bloom insert/probe), the cross-query
:class:`~repro.storage.artifacts.ArtifactCache` (including table-change and
filter-change invalidation), the bit-identity matrix — PT/RPT
``reduced_rows`` against the straight-line replay of
``tests/reference_transfer.py`` and every mode's aggregates against plain
hash joins, across five workloads × {artifact cache off, cold, warm} × the
four backend names — thread-safety of the Bloom filter statistics under
concurrent probes, and the cache observability counters.

Removed with the ``hash_cache`` / ``selection_vectors`` off-paths: the
``hash_only`` / ``selvec_only`` / ``hash+selvec`` configurations (the matrix
used the uncached path as its reference; the replay replaces it),
``test_uncached_runs_record_no_cache_activity``, and ``TestConfigResolution``
(now the table-driven ``test_config_resolution.py``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    Database,
    ExecutionConfig,
    ExecutionMode,
    ExecutionOptions,
    JoinCondition,
    QuerySpec,
    RelationRef,
)
from repro.bloom.bloom_filter import BloomFilter, hash_keys, key_patterns
from repro.errors import CatalogError
from repro.exec.hashcache import HashCache
from repro.expr import eq, lt
from repro.storage.artifacts import ArtifactCache, ArtifactKey, mask_fingerprint
from repro.workloads import dsb, job, synthetic, tpcds, tpch

from reference_transfer import replay_reduced_rows


BACKENDS = ("serial", "parallel")


@pytest.fixture(autouse=True)
def _small_morsels(morsel_rows):
    """A tiny morsel, so every non-serial backend actually cuts its inputs."""
    morsel_rows(256)


def _config(artifact_cache: bool, backend=None) -> ExecutionOptions:
    # Adaptive transfer is pinned off: under the REPRO_ADAPTIVE_TRANSFER CI
    # leg, skipped passes and exact-bitmap downgrades would remove the very
    # Bloom hashing work whose caching this module tests (adaptive on/off
    # identity has its own matrix in tests/test_adaptive.py).
    return ExecutionOptions(
        execution=ExecutionConfig(
            backend=backend,
            num_threads=4,
            artifact_cache=artifact_cache,
            adaptive_transfer=False,
        )
    )


NO_ARTIFACTS = _config(False)
ARTIFACTS = _config(True)


def _signature(result):
    return (
        tuple(sorted(result.aggregates.items())),
        result.output_rows,
        tuple(sorted(result.stats.reduced_rows.items())),
    )


# ---------------------------------------------------------------------------
# HashCache unit behavior
# ---------------------------------------------------------------------------
class TestHashCache:
    def _table(self):
        from repro.storage.table import Table

        return Table.from_dict(
            "t", {"id": np.arange(100, dtype=np.int64), "other": np.arange(100) * 3}
        )

    def test_bloom_pass_matches_direct_hashing(self):
        table = self._table()
        cache = HashCache()
        hashes, patterns = cache.bloom_pass(table, "id")
        expected = hash_keys(table.column("id").data)
        np.testing.assert_array_equal(hashes, expected)
        np.testing.assert_array_equal(patterns, key_patterns(expected))

    def test_hit_and_miss_counters(self):
        table = self._table()
        cache = HashCache()
        assert cache.misses == 0 and cache.hits == 0
        cache.bloom_pass(table, "id")
        assert (cache.hits, cache.misses) == (0, 1)
        cache.bloom_pass(table, "id")
        assert (cache.hits, cache.misses) == (1, 1)
        cache.bloom_pass(table, "other")
        assert (cache.hits, cache.misses) == (1, 2)

    def test_selection_pass_is_keyed_by_row_index_identity(self):
        table = self._table()
        cache = HashCache()
        selection = np.array([1, 5, 9], dtype=np.int64)
        keys = table.column("id").data[selection]
        hashes = hash_keys(keys)
        cache.store_selection_pass(table, "id", selection, (hashes, key_patterns(hashes)))
        hit = cache.selection_pass(table, "id", selection)
        assert hit is not None
        np.testing.assert_array_equal(hit[0], hashes)
        # A different (even equal-valued) row-index array is a different state.
        assert cache.selection_pass(table, "id", selection.copy()) is None

    def test_size_accounting(self):
        table = self._table()
        cache = HashCache()
        assert cache.nbytes == 0 and len(cache) == 0
        cache.bloom_pass(table, "id")
        assert cache.nbytes > 0 and len(cache) == 1

    def test_selection_passes_bounded_per_column(self):
        table = self._table()
        cache = HashCache()
        selections = [np.array([i], dtype=np.int64) for i in range(5)]
        for selection in selections:
            keys = table.column("id").data[selection]
            hashes = hash_keys(keys)
            cache.store_selection_pass(table, "id", selection, (hashes, key_patterns(hashes)))
        assert len(cache) == HashCache.SELECTION_PASSES_PER_COLUMN
        # Only the most recent states are retained.
        assert cache.selection_pass(table, "id", selections[-1]) is not None
        assert cache.selection_pass(table, "id", selections[0]) is None

    def test_rejects_non_integer_columns(self):
        from repro.errors import ExecutionError
        from repro.storage.table import Table

        table = Table.from_dict("t", {"x": np.array([1.5, 2.5])})
        with pytest.raises(ExecutionError):
            HashCache().bloom_pass(table, "x")

    def test_selection_cache_does_not_pin_superseded_selections(self):
        """A relation's superseded row-id vector must be collectable.

        The old ``id()``-keyed cache held strong references to every stored
        selection array (the only way to keep raw ids from aliasing), which
        both pinned dead arrays in memory and was the precondition for the
        id-reuse hazard this regression guards.  (An unreduced relation has
        no vector and never reaches the selection cache at all.)
        """
        import gc
        import weakref

        from repro.exec.relation import BoundRelation

        table = self._table()
        cache = HashCache()
        relation = BoundRelation.from_table("r", table)
        assert relation.row_indices is None
        relation.keep(np.isin(np.arange(100), (1, 5, 9)))
        selection = relation.row_indices
        watcher = weakref.ref(selection)
        hashes = hash_keys(relation.key_values("id"))
        cache.store_selection_pass(table, "id", selection, (hashes, key_patterns(hashes)))
        assert cache.selection_pass(table, "id", selection) is not None
        relation.keep(np.array([True, False, True]))  # a new vector replaces it
        assert cache.selection_pass(table, "id", relation.row_indices) is None
        del selection
        gc.collect()
        assert watcher() is None

    def test_id_reuse_cannot_alias_selection_passes(self):
        """Force the ``id()``-reuse aliasing scenario deterministically.

        A dead selection array's address can be recycled by a brand-new
        array; the old ``id()``-keyed cache would then serve the dead
        array's pass for the new one.  CPython's allocator makes the reuse
        hard to force reliably from the outside, so this test constructs
        the exact collision state in the token registry — a stale mapping
        under the new array's ``id`` — and asserts the weakref validation
        rejects it: the new array gets a fresh token and a cache miss, not
        the stale pass.
        """
        import gc
        import weakref

        table = self._table()
        cache = HashCache()
        selection = np.array([1, 5, 9], dtype=np.int64)
        keys = table.column("id").data[selection]
        hashes = hash_keys(keys)
        cache.store_selection_pass(table, "id", selection, (hashes, key_patterns(hashes)))
        stale_token = cache._tokens.token(selection)

        imposter = np.array([0, 2, 4], dtype=np.int64)  # different selection
        # The collision: the registry holds an entry under the imposter's id
        # that still describes the (conceptually dead) original array.
        cache._tokens._by_id[id(imposter)] = (weakref.ref(selection), stale_token)
        assert cache._tokens.token(imposter) != stale_token
        assert cache.selection_pass(table, "id", imposter) is None
        # The genuine array is unaffected.
        assert cache.selection_pass(table, "id", selection) is not None

        # And once an array truly dies, its registry entry is retired so the
        # token can never be reissued to an address-recycled successor.
        dead_key = id(selection)
        del selection, keys
        gc.collect()
        assert dead_key not in cache._tokens._by_id

    def test_full_pass_keys_survive_id_reuse_of_column_data(self):
        """Same collision forcing for the full-column pass keys."""
        import weakref

        from repro.storage.table import Table

        cache = HashCache()
        first = Table.from_dict("t", {"id": np.arange(64, dtype=np.int64)})
        cache.bloom_pass(first, "id")
        assert cache.misses == 1
        stale_token = cache._tokens.token(first.column("id").data)

        replacement = Table.from_dict("t", {"id": np.arange(64, 128, dtype=np.int64)})
        cache._tokens._by_id[id(replacement.column("id").data)] = (
            weakref.ref(first.column("id").data),
            stale_token,
        )
        hashes, _ = cache.bloom_pass(replacement, "id")
        np.testing.assert_array_equal(hashes, hash_keys(replacement.column("id").data))
        assert cache.misses == 2  # fresh pass, not the stale entry


# ---------------------------------------------------------------------------
# Precomputed-hash kernel APIs
# ---------------------------------------------------------------------------
class TestPrecomputedHashKernels:
    def test_bloom_probe_with_hashes_bit_matches_keys(self):
        rng = np.random.default_rng(3)
        build = rng.integers(0, 10_000, size=5_000, dtype=np.int64)
        probe = rng.integers(0, 10_000, size=20_000, dtype=np.int64)
        by_keys = BloomFilter(expected_keys=build.size)
        by_keys.insert(build)
        hashes = hash_keys(build)
        by_hashes = BloomFilter(expected_keys=build.size)
        by_hashes.insert(hashes=hashes, patterns=key_patterns(hashes))
        probe_hashes = hash_keys(probe)
        np.testing.assert_array_equal(
            by_keys.probe(probe),
            by_hashes.probe(hashes=probe_hashes, patterns=key_patterns(probe_hashes)),
        )
        # Hashes without patterns also match (patterns derived on the fly).
        np.testing.assert_array_equal(
            by_keys.probe(probe), by_hashes.probe(hashes=probe_hashes)
        )

    def test_bloom_requires_keys_or_hashes(self):
        from repro.errors import ExecutionError

        bloom = BloomFilter(expected_keys=10)
        with pytest.raises(ExecutionError):
            bloom.insert()
        with pytest.raises(ExecutionError):
            bloom.probe()


# ---------------------------------------------------------------------------
# ArtifactCache unit behavior
# ---------------------------------------------------------------------------
class TestArtifactCache:
    def _key(self, version=1, column="id", fingerprint="full", kind="bloom"):
        return ArtifactKey(
            table="t", table_version=version, column=column, fingerprint=fingerprint, kind=kind
        )

    def test_lru_eviction_within_budget(self):
        cache = ArtifactCache(budget_bytes=100)
        cache.put(self._key(column="a"), "A", 40)
        cache.put(self._key(column="b"), "B", 40)
        assert cache.get(self._key(column="a")) == "A"  # refresh a's LRU slot
        cache.put(self._key(column="c"), "C", 40)  # evicts b, the LRU entry
        assert cache.get(self._key(column="b")) is None
        assert cache.get(self._key(column="a")) == "A"
        assert cache.get(self._key(column="c")) == "C"
        assert cache.evictions == 1
        assert cache.current_bytes == 80

    def test_oversized_artifact_not_admitted(self):
        cache = ArtifactCache(budget_bytes=10)
        cache.put(self._key(), "big", 11)
        assert len(cache) == 0

    def test_invalidate_table(self):
        cache = ArtifactCache(budget_bytes=1000)
        cache.put(self._key(column="a"), "A", 10)
        cache.put(self._key(column="b"), "B", 10)
        assert cache.invalidate_table("t") == 2
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_mask_fingerprint(self):
        assert mask_fingerprint(None) == "full"
        mask = np.array([True, False, True])
        assert mask_fingerprint(mask) == mask_fingerprint(mask.copy())
        assert mask_fingerprint(mask) != mask_fingerprint(np.array([True, False, False]))
        # Same packed bits, different length -> different fingerprint.
        assert mask_fingerprint(mask) != mask_fingerprint(np.array([True, False, True, False]))

    def test_catalog_versions_are_monotonic(self):
        db = Database()
        db.register_dataframe("t", {"id": [1, 2, 3]})
        assert db.catalog.version("t") == 1
        db.register_dataframe("t", {"id": [4, 5, 6]}, replace=True)
        assert db.catalog.version("t") == 2
        db.catalog.unregister("t")
        with pytest.raises(CatalogError):
            db.catalog.version("t")
        db.register_dataframe("t", {"id": [7]})
        assert db.catalog.version("t") == 3  # never reused


# ---------------------------------------------------------------------------
# Bit-identity: every backend and artifact-cache state matches the references
# ---------------------------------------------------------------------------
class TestBitIdentityMatrix:
    def _assert_matrix(self, db, query):
        plan = db.optimizer_plan(query)
        hash_joins = db.execute(
            query, mode=ExecutionMode.BASELINE, plan=plan, options=_config(False, "serial")
        ).aggregates
        for mode in ExecutionMode:
            first = None
            replay = None
            for backend in BACKENDS:
                if db.artifact_cache is not None:
                    db.artifact_cache.clear()
                for state, artifacts in (("off", False), ("cold", True), ("warm", True)):
                    result = db.execute(
                        query, mode=mode, plan=plan, options=_config(artifacts, backend)
                    )
                    where = (mode, backend, state)
                    if first is None:
                        first = _signature(result)
                        # SUM/AVG add in join-output order, which differs by mode.
                        assert result.aggregates == pytest.approx(hash_joins, rel=1e-9), where
                        if mode.uses_bloom_filters:
                            replay = replay_reduced_rows(db, query, result.schedule)
                    assert _signature(result) == first, where
                    if replay is not None:
                        assert result.stats.reduced_rows == replay, where

    def test_synthetic(self):
        instance = synthetic.figure2_instance(base_size=40)
        try:
            self._assert_matrix(instance.database, instance.query)
        finally:
            instance.database.close()

    def test_tpch(self, tpch_db):
        self._assert_matrix(tpch_db, tpch.query(3))

    def test_job(self, job_db):
        self._assert_matrix(job_db, job.query(3))

    def test_tpcds(self, tpcds_db):
        self._assert_matrix(tpcds_db, tpcds.query(34))

    def test_dsb(self, dsb_db):
        self._assert_matrix(dsb_db, dsb.query(34))

    def test_chain(self, imdb_db, chain_query):
        self._assert_matrix(imdb_db, chain_query)


# ---------------------------------------------------------------------------
# Artifact cache: reuse and invalidation
# ---------------------------------------------------------------------------
class TestArtifactReuseAndInvalidation:
    def _db(self, dim_ids, fact_ids):
        db = Database()
        db.register_dataframe(
            "dim",
            {"id": np.asarray(dim_ids, dtype=np.int64),
             "attr": (np.asarray(dim_ids, dtype=np.int64) % 7)},
            primary_key=["id"],
        )
        db.register_dataframe("fact", {"dim_id": np.asarray(fact_ids, dtype=np.int64)})
        return db

    def _query(self, bound=5):
        return QuerySpec(
            name="artifact_q",
            relations=(
                RelationRef("d", "dim", lt("attr", bound)),
                RelationRef("f", "fact"),
            ),
            joins=(JoinCondition("f", "dim_id", "d", "id"),),
        )

    def test_repeated_query_hits_the_cache(self):
        rng = np.random.default_rng(11)
        db = self._db(np.arange(50), rng.integers(0, 50, size=4_000))
        query = self._query()
        first = db.execute(query, mode=ExecutionMode.RPT, options=ARTIFACTS)
        assert first.stats.artifact_cache_hits == 0
        assert first.stats.artifact_cache_misses > 0
        second = db.execute(query, mode=ExecutionMode.RPT, options=ARTIFACTS)
        assert second.stats.artifact_cache_hits > 0
        assert _signature(first) == _signature(second)
        assert db.artifact_cache is not None and len(db.artifact_cache) > 0

    def test_stale_filter_never_served_after_table_replace(self):
        rng = np.random.default_rng(12)
        fact_ids = rng.integers(0, 50, size=4_000)
        db = self._db(np.arange(50), fact_ids)
        query = self._query()
        warmup = db.execute(query, mode=ExecutionMode.RPT, options=ARTIFACTS)
        db.execute(query, mode=ExecutionMode.RPT, options=ARTIFACTS)

        # Replace the dimension so different ids survive the filter.  A
        # stale Bloom filter / hash index would silently keep the old rows.
        new_dim_ids = np.arange(25, 75)
        db.register_dataframe(
            "dim",
            {"id": new_dim_ids, "attr": new_dim_ids % 7},
            primary_key=["id"],
            replace=True,
        )
        # Re-registering reclaims the replaced table's artifacts eagerly.
        assert all(key.table != "dim" for key in db.artifact_cache._entries)
        changed = db.execute(query, mode=ExecutionMode.RPT, options=ARTIFACTS)

        fresh = self._db(new_dim_ids, fact_ids)
        expected = fresh.execute(query, mode=ExecutionMode.RPT, options=NO_ARTIFACTS)
        assert _signature(changed) == _signature(expected)
        assert _signature(changed) != _signature(warmup)  # the change is visible

    def test_different_filters_never_share_artifacts(self):
        rng = np.random.default_rng(13)
        fact_ids = rng.integers(0, 50, size=4_000)
        db = self._db(np.arange(50), fact_ids)
        db.execute(self._query(bound=5), mode=ExecutionMode.RPT, options=ARTIFACTS)
        narrow = db.execute(
            self._query(bound=2), mode=ExecutionMode.RPT, options=ARTIFACTS
        )
        fresh = self._db(np.arange(50), fact_ids)
        expected = fresh.execute(self._query(bound=2), mode=ExecutionMode.RPT, options=NO_ARTIFACTS)
        assert _signature(narrow) == _signature(expected)


# ---------------------------------------------------------------------------
# Thread safety of Bloom filter statistics (thread-pool regression)
# ---------------------------------------------------------------------------
class TestBloomStatisticsThreadSafety:
    def test_concurrent_probes_count_exactly(self):
        rng = np.random.default_rng(21)
        bloom = BloomFilter(expected_keys=1_000)
        bloom.insert(rng.integers(0, 10_000, size=1_000, dtype=np.int64))
        probe = rng.integers(0, 10_000, size=10_000, dtype=np.int64)
        expected_passed = int(bloom.probe(probe).sum())
        base_probed = bloom.statistics.keys_probed
        base_passed = bloom.statistics.probes_passed

        rounds = 64
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: bloom.probe(probe), range(rounds)))
        # Lost updates under concurrent read-modify-write would undercount.
        assert bloom.statistics.keys_probed == base_probed + rounds * probe.size
        assert bloom.statistics.probes_passed == base_passed + rounds * expected_passed

    def test_concurrent_hashed_probes_count_exactly(self):
        rng = np.random.default_rng(22)
        bloom = BloomFilter(expected_keys=500)
        bloom.insert(rng.integers(0, 5_000, size=500, dtype=np.int64))
        probe = rng.integers(0, 5_000, size=5_000, dtype=np.int64)
        hashes = hash_keys(probe)
        patterns = key_patterns(hashes)

        rounds = 64
        barrier = threading.Barrier(8)

        def hammer(_):
            barrier.wait()
            for _ in range(rounds // 8):
                bloom.probe(hashes=hashes, patterns=patterns)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert bloom.statistics.keys_probed == rounds * probe.size

    def test_parallel_backend_execution_stats_match_serial(
        self, imdb_db, chain_query, morsel_rows
    ):
        morsel_rows(128)
        serial = imdb_db.execute(
            chain_query,
            mode=ExecutionMode.RPT,
            options=ExecutionOptions(execution=ExecutionConfig(backend="serial")),
        )
        parallel = imdb_db.execute(
            chain_query,
            mode=ExecutionMode.RPT,
            options=ExecutionOptions(
                execution=ExecutionConfig(backend="parallel", num_threads=8)
            ),
        )
        assert serial.aggregates == parallel.aggregates
        # Per-step transfer statistics (fed by the probed filters) agree.
        assert [
            (s.source, s.target, s.rows_before, s.rows_after)
            for s in serial.stats.transfer_steps
        ] == [
            (s.source, s.target, s.rows_before, s.rows_after)
            for s in parallel.stats.transfer_steps
        ]


# ---------------------------------------------------------------------------
# Observability: cache counters surface in op stats and traces
# ---------------------------------------------------------------------------
class TestCacheObservability:
    def test_counters_and_trace_markers(self, sparse_db, sparse_query):
        # Sparse keys keep the steps Bloom filters; an exact-bitmap step
        # hashes nothing, so it has no pass to reuse.
        result = sparse_db.execute(sparse_query, mode=ExecutionMode.RPT, options=NO_ARTIFACTS)
        stats = result.stats
        assert stats.hash_reuse_hits > 0
        assert stats.hash_reuse_misses > 0
        assert stats.selection_vector_rows > 0
        assert any(op.hash_hits or op.hash_misses for op in stats.op_stats)
        assert any(op.selvec_rows for op in stats.op_stats)
        trace = stats.op_trace()
        assert "[hash " in trace
        assert "[selvec " in trace
        assert stats.cache_summary().startswith("cache: ")

    def test_artifact_hits_surface_in_trace(self, tpch_db):
        query = tpch.query(5)
        plan = tpch_db.optimizer_plan(query)
        tpch_db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=ARTIFACTS)
        warm = tpch_db.execute(
            query, mode=ExecutionMode.RPT, plan=plan, options=ARTIFACTS
        )
        assert warm.stats.artifact_cache_hits > 0
        assert any(op.artifact_hits for op in warm.stats.op_stats)
        assert "[artifact hit]" in warm.stats.op_trace()
        assert "artifact cache" in warm.stats.cache_summary()

    def test_format_op_traces_appends_cache_summary(self, tpch_db):
        from repro.bench import format_op_traces, run_uniform_trace

        results = run_uniform_trace(
            tpch_db, tpch.query(3), modes=(ExecutionMode.RPT,),
            options=NO_ARTIFACTS,
        )
        assert "cache: " in format_op_traces(results)
