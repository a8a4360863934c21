"""Tests for the hash-once execution layer.

Covers the Bloom hashing passes a run keeps
(:class:`~repro.exec.run_state.RunState`), the precomputed-hash kernel APIs (Bloom insert/probe), the cross-query
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
from repro.errors import CatalogError, ExecutionError
from repro.exec import BoundRelation, ExecutionStats, PipelineExecutor
from repro.exec.run_state import RunState
from repro.exec.statistics import OpStats
from repro.exec.transfer_ops import bloom_pass_for_relation, full_bloom_pass
from repro.expr import eq, lt
from repro.plan.physical import PhysicalPlan
from repro.storage.artifacts import ArtifactCache, ArtifactKey, mask_fingerprint
from repro.workloads import dsb, job, synthetic, tpcds, tpch

from reference_transfer import replay_reduced_rows


BACKENDS = ("serial", "parallel")


@pytest.fixture(autouse=True)
def _small_morsels(morsel_rows):
    """A tiny morsel, so every non-serial backend actually cuts its inputs."""
    morsel_rows(256)


def _config(artifact_cache: bool, backend=None) -> ExecutionOptions:
    return ExecutionOptions(
        execution=ExecutionConfig(
            backend=backend,
            num_threads=4,
            artifact_cache=artifact_cache,
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
# Per-run Bloom hashing passes (RunState)
# ---------------------------------------------------------------------------
class TestRunBloomPasses:
    """The passes a :class:`~repro.exec.run_state.RunState` keeps: full-column
    passes by column buffer, selection passes by relation version."""

    def _executor(self, columns, b_columns=None, artifact_cache=None):
        """An executor over ``a JOIN b ON a.id = b.id``: a self-join of table
        ``t``, or, given ``b_columns``, a join of ``t`` with table ``u``."""
        db = Database()
        db.register_dataframe("t", columns)
        tables = {"a": "t", "b": "t"}
        if b_columns is not None:
            db.register_dataframe("u", b_columns)
            tables["b"] = "u"
        query = QuerySpec(
            name="self_join",
            relations=tuple(RelationRef(alias, name) for alias, name in tables.items()),
            joins=(JoinCondition("a", "id", "b", "id"),),
        )
        versions = {alias: db.catalog.version(name) for alias, name in tables.items()}
        return PipelineExecutor(
            query,
            db.join_graph(query),
            catalog=db.catalog,
            artifact_cache=artifact_cache,
            table_versions=versions if artifact_cache is not None else None,
        )

    def _start(self, executor):
        """A fresh run of ``executor`` with both relations bound and unreduced."""
        run = RunState(executor, PhysicalPlan("self_join", "rpt", ()), ExecutionStats())
        run.relations = {
            ref.alias: BoundRelation.from_table(ref.alias, executor.catalog.table(ref.table))
            for ref in executor.query.relations
        }
        return run

    def _run(self, columns, b_columns=None):
        return self._start(self._executor(columns, b_columns))

    def _ids(self):
        return {"id": np.arange(100, dtype=np.int64) * 7 % 31, "x": np.linspace(0, 1, 100)}

    def test_pass_is_bit_identical_to_hashing_the_gathered_keys(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        for mask in (None, np.arange(100) % 3 == 0):
            if mask is not None:
                relation.keep(mask)
            hashes, patterns = bloom_pass_for_relation(run, relation, "id")
            expected = hash_keys(relation.key_values("id"))
            np.testing.assert_array_equal(hashes, expected)
            np.testing.assert_array_equal(patterns, key_patterns(expected))

    def test_build_and_probe_at_one_version_share_a_pass(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        relation.keep(np.arange(100) % 2 == 0)
        build = bloom_pass_for_relation(run, relation, "id")
        assert (run.record.hash_hits, run.record.hash_misses) == (0, 1)
        probe = bloom_pass_for_relation(run, relation, "id")
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 1)
        assert probe is build
        relation.keep(np.arange(relation.num_rows) % 5 != 0)  # a new version
        reduced = bloom_pass_for_relation(run, relation, "id")
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 2)
        np.testing.assert_array_equal(reduced[0], hash_keys(relation.key_values("id")))

    def test_self_join_aliases_share_the_full_column_pass(self):
        run = self._run(self._ids())
        first = bloom_pass_for_relation(run, run.relations["a"], "id")
        second = bloom_pass_for_relation(run, run.relations["b"], "id")
        assert second is first
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 1)

    def test_rejects_non_integer_columns(self):
        run = self._run(self._ids())
        with pytest.raises(ExecutionError):
            bloom_pass_for_relation(run, run.relations["a"], "x")

    def test_tables_sharing_a_buffer_share_the_full_column_pass(self):
        ids = self._ids()
        run = self._run(ids, b_columns={"id": ids["id"]})
        first = bloom_pass_for_relation(run, run.relations["a"], "id")
        second = bloom_pass_for_relation(run, run.relations["b"], "id")
        assert second is first
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 1)

    def test_equal_values_in_distinct_buffers_are_hashed_apart(self):
        ids = self._ids()
        run = self._run(ids, b_columns={"id": ids["id"].copy()})
        first = bloom_pass_for_relation(run, run.relations["a"], "id")
        second = bloom_pass_for_relation(run, run.relations["b"], "id")
        assert second is not first
        np.testing.assert_array_equal(second[0], first[0])
        assert (run.record.hash_hits, run.record.hash_misses) == (0, 2)
        assert len(run.full_passes) == 2

    def test_full_pass_entry_holds_its_buffer(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        bloom_pass_for_relation(run, relation, "id")
        data = relation.key_data("id")
        (key, (held, _)), = run.full_passes.items()
        assert key == id(data) and held is data

    def test_uncomputed_full_pass_counts_no_miss(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        assert full_bloom_pass(run, relation, "id", compute=False) is None
        assert (run.record.hash_hits, run.record.hash_misses) == (0, 0)
        assert not run.full_passes
        paid = full_bloom_pass(run, relation, "id", compute=True)
        assert (run.record.hash_hits, run.record.hash_misses) == (0, 1)
        assert full_bloom_pass(run, relation, "id", compute=False) is paid
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 1)

    def test_reduced_relation_gathers_from_a_paid_full_pass(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        full = bloom_pass_for_relation(run, relation, "id")
        relation.keep(np.arange(100) % 4 == 1)
        hashes, patterns = bloom_pass_for_relation(run, relation, "id")
        # The full pass is reused (a hit), nothing is hashed again.
        assert (run.record.hash_hits, run.record.hash_misses) == (1, 1)
        np.testing.assert_array_equal(hashes, full[0].take(relation.row_indices))
        np.testing.assert_array_equal(hashes, hash_keys(relation.key_values("id")))
        np.testing.assert_array_equal(patterns, key_patterns(hashes))

    def test_a_new_version_replaces_the_selection_pass(self):
        run = self._run(self._ids())
        relation = run.relations["a"]
        for modulus in (2, 3, 5):
            relation.keep(np.arange(relation.num_rows) % modulus != 0)
            latest = bloom_pass_for_relation(run, relation, "id")
        # One entry per (alias, column): superseded selections are not pinned.
        assert list(run.selection_passes) == [("a", "id")]
        version, cached = run.selection_passes[("a", "id")]
        assert version == relation.version and cached is latest

    def test_aliases_keep_their_own_selection_passes(self):
        run = self._run(self._ids())
        a, b = run.relations["a"], run.relations["b"]
        a.keep(np.arange(100) % 2 == 0)
        b.keep(np.arange(100) % 3 == 0)
        for relation in (a, b):
            hashes, _ = bloom_pass_for_relation(run, relation, "id")
            np.testing.assert_array_equal(hashes, hash_keys(relation.key_values("id")))
        assert (run.record.hash_hits, run.record.hash_misses) == (0, 2)
        assert set(run.selection_passes) == {("a", "id"), ("b", "id")}

    def test_counters_go_to_the_open_record(self):
        run = self._run(self._ids())
        first, second = OpStats(index=0, kind="BloomBuild"), OpStats(index=1, kind="BloomProbe")
        run.record = first
        bloom_pass_for_relation(run, run.relations["a"], "id")
        run.record = second
        bloom_pass_for_relation(run, run.relations["b"], "id")
        assert (first.hash_hits, first.hash_misses) == (0, 1)
        assert (second.hash_hits, second.hash_misses) == (1, 0)

    def test_artifact_cache_serves_the_full_pass_to_a_later_run(self):
        cache = ArtifactCache()
        executor = self._executor(self._ids(), artifact_cache=cache)
        cold = self._start(executor)
        paid = full_bloom_pass(cold, cold.relations["a"], "id", compute=True)
        assert (cold.record.artifact_hits, cold.record.artifact_misses) == (0, 1)
        assert cold.record.hash_misses == 1
        warm = self._start(executor)
        # Already paid by the earlier run: served even when not computing.
        served = full_bloom_pass(warm, warm.relations["a"], "id", compute=False)
        assert served is paid
        assert (warm.record.artifact_hits, warm.record.artifact_misses) == (1, 0)
        assert (warm.record.hash_hits, warm.record.hash_misses) == (0, 0)

    def test_through_artifacts_round_trip(self):
        cache = ArtifactCache()
        run = self._start(self._executor(self._ids(), artifact_cache=cache))
        key = ArtifactKey(
            table="t", table_version=1, column="id", fingerprint="full", kind="bloom"
        )
        built = []

        def build():
            built.append(np.arange(3))
            return built[-1]

        # No key: a plain build, no cache traffic.
        assert run.through_artifacts(None, build, lambda value: value.nbytes) is built[0]
        assert len(cache) == 0
        # Nothing built: no miss, no put.
        assert run.through_artifacts(key, lambda: None, lambda value: 0) is None
        assert (run.record.artifact_hits, run.record.artifact_misses) == (0, 0)
        assert len(cache) == 0
        first = run.through_artifacts(key, build, lambda value: value.nbytes)
        assert (run.record.artifact_hits, run.record.artifact_misses) == (0, 1)
        assert run.through_artifacts(key, build, lambda value: value.nbytes) is first
        assert (run.record.artifact_hits, run.record.artifact_misses) == (1, 1)
        assert len(built) == 2 and cache.current_bytes == first.nbytes


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

    def test_invalidate_version(self):
        cache = ArtifactCache(budget_bytes=1000)
        cache.put(self._key(column="a"), "A", 10)
        cache.put(self._key(column="b"), "B", 10)
        cache.put(self._key(version=2, column="a"), "A2", 10)
        assert cache.invalidate_version("t", 1) == 2
        assert len(cache) == 1 and cache.current_bytes == 10
        assert cache.get(self._key(version=2, column="a")) == "A2"
        assert cache.invalidate_version("t", 1) == 0

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

    def test_tpch_composite_keys(self, tpch_db):
        # ``l ⋉ ps`` joins on (partkey, suppkey): the replay's composite rule.
        self._assert_matrix(tpch_db, tpch.query(9))

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
