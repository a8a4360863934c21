"""Tests for the morsel-parallel runtime and the radix-partitioned hash joins.

Covers the radix-partitioning kernels (partition ids, permutation/offsets,
:class:`PartitionedHashIndex` match equivalence with the monolithic
kernels), ``HashBuild``'s run-time choice between a monolithic and a
radix-partitioned index (decided from the materialized build rows), the
:class:`MorselBackend` morsel scheduler (bit-identical results on its edge
inputs, morsel counters, pool lifecycle), and the ``REPRO_BACKEND`` reroute
of whole queries behind the CI backend matrix (the per-variable resolution
cases of the former ``TestExecutionConfigResolution`` are the table-driven
``test_config_resolution.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Database, ExecutionConfig, ExecutionMode, ExecutionOptions
from repro.errors import ExecutionError
from repro.exec.kernels import (
    HashIndex,
    PartitionedHashIndex,
    match_keys,
    radix_partition,
    radix_partition_ids,
)
from repro.exec import backends, join_ops
from repro.exec.backends import MorselBackend
from repro.exec.faults import CancelToken


# ---------------------------------------------------------------------------
# Radix partitioning kernels
# ---------------------------------------------------------------------------
class TestRadixPartition:
    def test_partition_ids_cover_range_and_agree_across_sides(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**60, size=10_000, dtype=np.int64)
        pids = radix_partition_ids(keys, bits=5)
        assert pids.dtype == np.uint16
        assert pids.min() >= 0 and pids.max() < 32
        # Equal keys hash to equal partitions regardless of the array they sit in.
        np.testing.assert_array_equal(pids, radix_partition_ids(keys.copy(), bits=5))

    def test_partition_ids_rejects_bad_bits(self):
        keys = np.arange(10, dtype=np.int64)
        with pytest.raises(ExecutionError):
            radix_partition_ids(keys, bits=0)
        with pytest.raises(ExecutionError):
            radix_partition_ids(keys, bits=17)

    def test_partitioning_is_a_permutation_with_consistent_offsets(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 1_000, size=5_000, dtype=np.int64)
        parts = radix_partition(keys, bits=4)
        assert parts.num_rows == keys.shape[0]
        np.testing.assert_array_equal(np.sort(parts.order), np.arange(keys.shape[0]))
        assert int(parts.offsets[-1]) == keys.shape[0]
        pids = radix_partition_ids(keys, bits=4)
        for p in range(parts.num_partitions):
            segment = parts.segment_keys(p)
            assert segment.shape[0] == parts.partition_rows(p)
            # Every row in partition p hashes to p, and maps back to its key.
            assert (radix_partition_ids(segment, bits=4) == p).all()
            np.testing.assert_array_equal(keys[parts.segment_order(p)], segment)
        assert int(np.bincount(pids, minlength=16).sum()) == keys.shape[0]

    def test_partitioned_match_agrees_with_monolithic(self):
        rng = np.random.default_rng(5)
        build = rng.integers(0, 700, size=4_000, dtype=np.int64)
        probe = rng.integers(0, 700, size=6_000, dtype=np.int64)
        mono = match_keys(probe, build)
        part = PartitionedHashIndex(build, bits=4).match(probe)
        # Same multiset of (probe, build) pairs, partition order notwithstanding.
        assert part.num_matches == mono.num_matches
        mono_pairs = np.sort(mono.probe_indices * 1_000_000 + mono.build_indices)
        part_pairs = np.sort(part.probe_indices * 1_000_000 + part.build_indices)
        np.testing.assert_array_equal(mono_pairs, part_pairs)

    def test_empty_sides(self):
        empty = np.zeros(0, dtype=np.int64)
        some = np.array([1, 2, 3], dtype=np.int64)
        index = PartitionedHashIndex(empty, bits=2)
        assert index.match(some).num_matches == 0
        full = PartitionedHashIndex(some, bits=2)
        assert full.match(empty).num_matches == 0

    def test_build_counts_pending_partitions_once(self):
        keys = np.arange(1_000, dtype=np.int64)
        index = PartitionedHashIndex(keys, bits=3)
        first = index.build()
        assert first > 0
        assert index.build() == 0  # already built: nothing pending

    def test_parallel_task_runner_matches_serial(self):
        rng = np.random.default_rng(7)
        build = rng.integers(0, 500, size=8_000, dtype=np.int64)
        probe = rng.integers(0, 500, size=8_000, dtype=np.int64)
        backend = MorselBackend(num_threads=4)
        try:
            serial = PartitionedHashIndex(build, bits=4).match(probe)
            parallel_index = PartitionedHashIndex(build, bits=4)
            parallel_index.build(run_tasks=backend.map_tasks)
            parallel = parallel_index.match(probe, run_tasks=backend.map_tasks)
        finally:
            backend.close()
        np.testing.assert_array_equal(serial.probe_indices, parallel.probe_indices)
        np.testing.assert_array_equal(serial.build_indices, parallel.build_indices)


# ---------------------------------------------------------------------------
# MorselBackend morsel scheduler
# ---------------------------------------------------------------------------
class TestParallelBackend:
    ROWS = 10

    @pytest.mark.parametrize("cancel", [False, True])
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("size", [1, 3, ROWS, ROWS + 1, None])
    @pytest.mark.parametrize("rows", [0, ROWS])
    def test_edge_inputs_are_byte_equal_to_the_whole_column_call(
        self, rows, size, threads, cancel, monkeypatch
    ):
        # ``size=None`` is the serial preset; shrink its cancellation cut so
        # the installed token makes it cut this input too.
        monkeypatch.setattr(backends, "SERIAL_CANCEL_CHUNK", 4)
        rng = np.random.default_rng(rows + 1)
        keys = rng.integers(0, 8, size=rows, dtype=np.int64)
        build = rng.integers(0, 8, size=6, dtype=np.int64)
        single = lambda k: k % 2 == 0  # noqa: E731
        paired = lambda kp: (kp[0] + kp[1]) % 3 == 0  # noqa: E731
        whole = HashIndex(build).match(keys)
        backend = MorselBackend(num_threads=threads, morsel_size=size)
        if cancel:
            backend.cancel = CancelToken()
        try:
            mask = backend.probe_mask(keys, single)
            pair_mask = backend.probe_mask((keys, keys * 3), paired)
            matches = backend.match(keys, HashIndex(build))
        finally:
            backend.close()
        for got, want in (
            (mask, single(keys)),
            (pair_mask, paired((keys, keys * 3))),
            (matches.probe_indices, whole.probe_indices),
            (matches.build_indices, whole.build_indices),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        expected = 0 if size is None else 3 * math.ceil(rows / size)
        assert backend.tasks_dispatched == expected

    def test_probe_mask_is_bit_identical_and_counts_morsels(self):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 100, size=10_000, dtype=np.int64)
        backend = MorselBackend(num_threads=4, morsel_size=1_024)
        try:
            mask = backend.probe_mask(keys, lambda k: k % 2 == 0)
        finally:
            backend.close()
        np.testing.assert_array_equal(mask, keys % 2 == 0)
        assert backend.tasks_dispatched == 10  # ceil(10000 / 1024)

    def test_match_is_bit_identical_to_serial(self):
        rng = np.random.default_rng(9)
        build = rng.integers(0, 300, size=5_000, dtype=np.int64)
        probe = rng.integers(0, 300, size=9_000, dtype=np.int64)
        index = HashIndex(build)
        serial = index.match(probe)
        backend = MorselBackend(num_threads=4, morsel_size=512)
        try:
            parallel = backend.match(probe, HashIndex(build))
        finally:
            backend.close()
        np.testing.assert_array_equal(serial.probe_indices, parallel.probe_indices)
        np.testing.assert_array_equal(serial.build_indices, parallel.build_indices)

    def test_small_inputs_skip_the_pool(self):
        backend = MorselBackend(num_threads=4, morsel_size=1_000)
        try:
            backend.probe_mask(np.arange(10, dtype=np.int64), lambda k: k > 5)
            assert backend._pool is None  # single morsel: no pool spun up
        finally:
            backend.close()

    def test_invalid_construction(self):
        with pytest.raises(ExecutionError):
            MorselBackend(num_threads=0)
        with pytest.raises(ExecutionError):
            MorselBackend(morsel_size=0)

    def test_close_is_idempotent(self):
        backend = MorselBackend(num_threads=2, morsel_size=4)
        backend.map_tasks([lambda: 1, lambda: 2, lambda: 3])
        backend.close()
        backend.close()


# ---------------------------------------------------------------------------
# Radix partitioning: HashBuild's run-time choice
# ---------------------------------------------------------------------------
def _partition_from(monkeypatch, rows: int) -> None:
    """Lower the executor's constants so the small fixture's joins can partition."""
    monkeypatch.setattr(join_ops, "PARTITION_THRESHOLD", rows)
    monkeypatch.setattr(join_ops, "PARTITION_BITS", 3)


class TestPartitionedJoins:
    def _options(self, backend: str) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(backend=backend, num_threads=4, num_workers=2)
        )

    def test_decision_follows_the_materialized_build_rows(
        self, imdb_db, chain_query, monkeypatch
    ):
        """The transfer phase shrinks build sides the static estimate (largest
        member's filtered base rows) says are large: those run monolithic, and
        only a build side that *is* large once materialized partitions."""
        threshold = 100
        _partition_from(monkeypatch, threshold)
        graph = imdb_db.join_graph(chain_query)
        result = imdb_db.execute(
            chain_query, mode=ExecutionMode.RPT, options=self._options("serial")
        )
        assert set(result.physical_plan.op_kinds()) <= {
            "scan", "filter_push", "bloom_build", "bloom_probe", "hash_build", "hash_probe",
            "aggregate",
        }
        trace = result.stats.op_trace().splitlines()[1:]
        records = {kind: [op for op in result.op_stats if op.kind == kind]
                   for kind in ("hash_build", "hash_probe")}
        decisions = []
        for step, build, probe in zip(
            result.stats.join_steps, records["hash_build"], records["hash_probe"]
        ):
            assert max(graph.size(alias) for alias in step.right_aliases) >= threshold
            partitioned = step.build_rows >= threshold
            decisions.append(partitioned)
            for record in (build, probe):
                assert record.radix_bits == (3 if partitioned else 0)
                assert ("[radix 2^3]" in trace[record.index]) == partitioned
        assert True in decisions and False in decisions

    def test_small_build_sides_stay_monolithic(self, imdb_db, chain_query):
        assert max(imdb_db.join_graph(chain_query).relation_sizes.values()) < (
            join_ops.PARTITION_THRESHOLD
        )
        result = imdb_db.execute(chain_query)
        assert not any(op.radix_bits for op in result.op_stats)
        assert "[radix" not in result.stats.op_trace()

    @pytest.mark.parametrize("backend", ["serial", "parallel", "process"])
    def test_partitioned_execution_matches_monolithic(
        self, imdb_db, chain_query, all_modes, backend, monkeypatch
    ):
        monolithic_results = {mode: imdb_db.execute(chain_query, mode=mode) for mode in all_modes}
        _partition_from(monkeypatch, 1)
        for mode, monolithic in monolithic_results.items():
            assert not any(op.radix_bits for op in monolithic.op_stats)
            partitioned = imdb_db.execute(
                chain_query, mode=mode, options=self._options(backend)
            )
            assert any(op.radix_bits for op in partitioned.op_stats), (mode, backend)
            assert monolithic.aggregates == partitioned.aggregates, (mode, backend)
            assert monolithic.output_rows == partitioned.output_rows, (mode, backend)

    def test_partitioned_builds_record_morsel_counts(self, imdb_db, chain_query, monkeypatch):
        _partition_from(monkeypatch, 1)
        result = imdb_db.execute(chain_query, options=self._options("parallel"))
        builds = [o for o in result.op_stats if o.kind == "hash_build" and o.radix_bits]
        assert builds
        assert all(o.morsels > 0 for o in builds)


# ---------------------------------------------------------------------------
# REPRO_BACKEND reroutes default executions (the CI backend matrix hook)
# ---------------------------------------------------------------------------
class TestBackendEnvironmentReroute:
    def test_env_matrix_runs_whole_queries(self, imdb_db, star_query, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        env_result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert env_result.execution_config.backend == "parallel"
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        serial_result = imdb_db.execute(star_query, mode=ExecutionMode.RPT)
        assert serial_result.execution_config.backend == "serial"
        assert env_result.aggregates == serial_result.aggregates
