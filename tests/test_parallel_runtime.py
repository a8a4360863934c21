"""Tests for the morsel-parallel runtime.

Covers the :class:`MorselBackend` morsel scheduler (bit-identical results on
its edge inputs, morsel counters, pool lifecycle), whole queries on the
parallel preset against the serial one (one thread and a pool, every TPC-H
query), the hash join's run-time
index choice as the op records show it (made from the rows the join sees,
the same on every backend), and the ``REPRO_BACKEND`` reroute of whole
queries behind the CI backend matrix (the per-variable resolution cases of
the former ``TestExecutionConfigResolution`` are the table-driven
``test_config_resolution.py``).
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest

from repro import Database, ExecutionConfig, ExecutionMode, ExecutionOptions
from repro.errors import ExecutionError
from repro.exec.kernels import HashIndex
from repro.exec import backends
from repro.exec.backends import MorselBackend
from repro.exec.faults import CancelToken
from repro.workloads import job, tpch
from repro.workloads.generator import WorkloadScale


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
        backend.probe_mask(np.arange(10, dtype=np.int64), lambda k: k > 5)  # starts the pool
        backend.close()
        backend.close()


# ---------------------------------------------------------------------------
# Whole queries: the parallel preset against the serial one
# ---------------------------------------------------------------------------
def _threads(num_threads: int) -> ExecutionOptions:
    return ExecutionOptions(
        execution=ExecutionConfig(backend="parallel", num_threads=num_threads)
    )


SERIAL = ExecutionOptions(execution=ExecutionConfig(backend="serial"))


@pytest.fixture(scope="module")
def seeded_tpch_db():
    """TPC-H at scale 0.1, seeded from ``crc32`` rather than ``hash()``.

    The generator seeds from ``hash((seed, salt))``, so ``tpch_db``'s data
    changes with ``PYTHONHASHSEED``, and under some hash seeds a base filter
    of ``q5``, ``q11`` or ``q17`` empties a relation.  An empty source keeps
    no target row and probes nothing, so that query's run would cut no
    morsel.  This load is the same in every process, and at seed 10 every
    query keeps a probe of more than 128 rows.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            WorkloadScale,
            "rng",
            lambda scale, salt="": np.random.default_rng(
                zlib.crc32(f"{scale.seed}/{salt}".encode())
            ),
        )
        db = Database()
        tpch.load(db, scale=0.1, seed=10)
    yield db
    db.close()


class TestBitIdentity:
    """With morsels small enough that every probe is cut, the parallel
    preset answers exactly what the serial one does — on one thread (the
    morsels run in turn) and on a pool (they gather in submission order)."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_star_and_chain_all_modes(
        self, imdb_db, star_query, chain_query, all_modes, threads, morsel_rows
    ):
        morsel_rows(256)
        for query in (star_query, chain_query):
            plan = imdb_db.optimizer_plan(query)
            for mode in all_modes:
                serial = imdb_db.execute(query, mode=mode, plan=plan, options=SERIAL)
                result = imdb_db.execute(query, mode=mode, plan=plan, options=_threads(threads))
                assert result.aggregates == serial.aggregates, (query.name, mode)
                assert result.output_rows == serial.output_rows, (query.name, mode)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(tpch.all_queries()))
    def test_tpch_backend_matrix(self, seeded_tpch_db, name, threads, morsel_rows):
        morsel_rows(128)
        db = seeded_tpch_db
        query = tpch.all_queries()[name]
        plan = db.optimizer_plan(query)
        serial = db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=SERIAL)
        result = db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=_threads(threads))
        assert result.aggregates == serial.aggregates
        assert result.output_rows == serial.output_rows
        # The probes really were cut.
        assert max(op.morsels for op in result.op_stats) > 1

    def test_job_query_matches_serial(self, job_db, morsel_rows):
        morsel_rows(128)
        name, query = next(iter(job.all_queries().items()))
        plan = job_db.optimizer_plan(query)
        serial = job_db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=SERIAL)
        result = job_db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=_threads(2))
        assert result.aggregates == serial.aggregates, name
        assert max(op.morsels for op in result.op_stats) > 1


# ---------------------------------------------------------------------------
# The join index: HashBuild's run-time choice
# ---------------------------------------------------------------------------
class TestJoinIndexChoice:
    def _options(self, backend: str) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(backend=backend, num_threads=4)
        )

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_records_name_the_index_and_every_backend_chooses_alike(
        self, imdb_db, chain_query, sparse_db, sparse_query, all_modes, backend, morsel_rows
    ):
        """Dense ids take a direct-address table, keys from a 2^60 domain the sorted
        index; both ops of a join carry the choice, the trace and the total
        show it, and cutting the probe side into morsels changes nothing."""
        morsel_rows(64)
        for db, query, direct in ((imdb_db, chain_query, True), (sparse_db, sparse_query, False)):
            for mode in all_modes:
                serial = db.execute(query, mode=mode, options=self._options("serial"))
                result = db.execute(query, mode=mode, options=self._options(backend))
                assert result.aggregates == serial.aggregates
                kinds = [op.join_index for op in result.op_stats if op.kind == "hash_probe"]
                assert kinds and kinds == [
                    op.join_index for op in serial.op_stats if op.kind == "hash_probe"
                ]
                assert all(kind.startswith("direct") == direct for kind in kinds), (mode, kinds)
                assert result.stats.sorted_index_joins == (0 if direct else len(kinds))
                trace = result.stats.op_trace().splitlines()[1:]
                for op in result.op_stats:
                    if op.kind in ("hash_build", "hash_probe"):
                        assert op.join_index and f" [{op.join_index}]" in trace[op.index]
                    else:
                        assert not op.join_index

    def test_build_side_with_duplicate_keys_is_not_the_unique_table(self, imdb_db, chain_query):
        result = imdb_db.execute(chain_query, mode=ExecutionMode.BASELINE)
        kinds = {op.join_index for op in result.op_stats if op.kind == "hash_build"}
        assert kinds == {"direct", "direct-unique"}


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
