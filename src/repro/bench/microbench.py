"""Microbenchmarks: Bloom probe vs hash probe (Figure 16) and kernel sweeps.

The paper's Figure 16 fixes the probe side at 10⁹ rows and varies the build
side from 128 to 10⁹ rows, comparing DuckDB's vectorized hash probe against
Arrow's (SIMD) blocked Bloom filter probe.  The reproduction runs the same
sweep (with smaller sizes appropriate for pure Python) over this engine's
actual probe paths:

* hash probe  — :func:`repro.exec.kernels.match_keys` (sort + binary search,
  the engine's hash-join matching kernel);
* Bloom probe — :meth:`repro.bloom.BloomFilter.probe`.

The reported quantity is seconds per probe for each build-side size, from
which the Bloom:hash advantage factor can be computed.

A third sweep (:func:`run_partition_microbench`) compares the monolithic
hash join against the radix-partitioned one
(:class:`~repro.exec.kernels.PartitionedHashIndex`) as the build side grows,
with the partition tasks additionally dispatched through the parallel
(thread) backend's pool and the monolithic probe fanned out through the
process backend; its results feed the repo's ``BENCH_partition.json``
perf-trajectory record.

A fourth sweep (:func:`run_scaling_microbench`) runs one RPT star-probe
query end to end under the serial, thread-parallel, and process-parallel
backends across a worker-count sweep — the thread-vs-process scaling
curves recorded as ``BENCH_scaling.json``.

A second sweep (:func:`run_semijoin_kernel_microbench`) compares the exact
semi-join membership kernel strategies on large inputs: ``np.isin`` (the
engine's historical implementation) against the adaptive
:class:`~repro.exec.kernels.HashIndex` kernel
:func:`~repro.exec.kernels.semi_join_mask` now uses (bitmap lookup for
bounded key domains, sort + ``searchsorted`` once amortized), plus the
cost when the index is reused across probes (the transfer phase probing
the same source in the forward and backward pass).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bloom.bloom_filter import BloomFilter
from repro.exec.kernels import (
    HashIndex,
    PartitionedHashIndex,
    match_keys,
    semi_join_mask,
)
from repro.exec.pipeline import MorselBackend

#: Build-side sizes swept by default (the paper goes from 128 to 1G).
DEFAULT_BUILD_SIZES = (128, 512, 2_048, 8_192, 32_768, 131_072, 524_288)

#: Default probe-side size (the paper uses 1 billion; scaled down here).
DEFAULT_PROBE_ROWS = 1_000_000


@dataclass(frozen=True)
class ProbeMeasurement:
    """Timing of one probe strategy at one build-side size."""

    build_rows: int
    probe_rows: int
    hash_probe_seconds: float
    bloom_probe_seconds: float
    exact_semijoin_seconds: float
    bloom_filter_bytes: int

    @property
    def bloom_advantage(self) -> float:
        """How many times faster the Bloom probe is than the hash probe."""
        if self.bloom_probe_seconds <= 0:
            return float("inf")
        return self.hash_probe_seconds / self.bloom_probe_seconds


def run_probe_microbenchmark(
    build_sizes: Sequence[int] = DEFAULT_BUILD_SIZES,
    probe_rows: int = DEFAULT_PROBE_ROWS,
    key_domain: int = 2**30,
    seed: int = 5,
    repeats: int = 1,
) -> List[ProbeMeasurement]:
    """Run the Figure 16 sweep and return one measurement per build size."""
    rng = np.random.default_rng(seed)
    probe_keys = rng.integers(0, key_domain, size=probe_rows, dtype=np.int64)
    measurements: List[ProbeMeasurement] = []
    for build_rows in build_sizes:
        build_keys = rng.integers(0, key_domain, size=build_rows, dtype=np.int64)

        hash_seconds = _best_time(lambda: match_keys(probe_keys, build_keys), repeats)

        bloom = BloomFilter(expected_keys=build_rows)
        bloom.insert(build_keys)
        bloom_seconds = _best_time(lambda: bloom.probe(probe_keys), repeats)

        exact_seconds = _best_time(lambda: semi_join_mask(probe_keys, build_keys), repeats)

        measurements.append(
            ProbeMeasurement(
                build_rows=build_rows,
                probe_rows=probe_rows,
                hash_probe_seconds=hash_seconds,
                bloom_probe_seconds=bloom_seconds,
                exact_semijoin_seconds=exact_seconds,
                bloom_filter_bytes=bloom.size_bytes,
            )
        )
    return measurements


def format_probe_microbenchmark(measurements: Sequence[ProbeMeasurement]) -> str:
    """Render the Figure 16 series as a table."""
    lines = [
        "Figure 16: Bloom probe vs hash probe (probe side fixed, build side varies)",
        f"{'build rows':>12} {'hash (s)':>12} {'bloom (s)':>12} {'exact SJ (s)':>14} {'bloom speedup':>14}",
    ]
    for m in measurements:
        lines.append(
            f"{m.build_rows:>12} {m.hash_probe_seconds:>12.4f} {m.bloom_probe_seconds:>12.4f} "
            f"{m.exact_semijoin_seconds:>14.4f} {m.bloom_advantage:>13.1f}x"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class SemiJoinKernelMeasurement:
    """Timing of the semi-join membership strategies at one filter-side size."""

    probe_rows: int
    filter_rows: int
    isin_seconds: float
    oneshot_seconds: float
    indexed_probe_seconds: float

    @property
    def oneshot_speedup(self) -> float:
        """Speedup of a one-shot :func:`semi_join_mask` call over ``np.isin``.

        The adaptive kernel picks a bitmap lookup for bounded key domains
        and delegates to ``np.isin`` otherwise, so this is >= ~1x by
        construction in both regimes.
        """
        if self.oneshot_seconds <= 0:
            return float("inf")
        return self.isin_seconds / self.oneshot_seconds

    @property
    def indexed_speedup(self) -> float:
        """Speedup over ``np.isin`` when the built index is reused across probes."""
        if self.indexed_probe_seconds <= 0:
            return float("inf")
        return self.isin_seconds / self.indexed_probe_seconds


#: Filter-side sizes swept by the semi-join kernel microbenchmark.
DEFAULT_FILTER_SIZES = (1_000, 10_000, 100_000, 1_000_000)


def run_semijoin_kernel_microbench(
    probe_rows: int = 1_000_000,
    filter_sizes: Sequence[int] = DEFAULT_FILTER_SIZES,
    key_domain: int = 2**22,
    seed: int = 11,
    repeats: int = 3,
) -> List[SemiJoinKernelMeasurement]:
    """Compare semi-join membership kernels on ``probe_rows``-sized inputs.

    Three strategies per filter size: ``np.isin`` (the historical kernel),
    a one-shot :func:`~repro.exec.kernels.semi_join_mask` call (fresh
    :class:`~repro.exec.kernels.HashIndex`: bitmap lookup for bounded
    domains, ``np.isin`` fallback otherwise), and a repeat probe against an
    already-used index (the amortized regime the executor's index cache
    hits — bitmap or cached sort + ``searchsorted``).  The default key
    domain models realistic id/dictionary-code columns, where the bitmap
    fast path applies; pass a huge ``key_domain`` (e.g. ``2**60``) to
    measure the unbounded regime, where ``np.isin`` is already optimal for
    whole-column probes (the kernel delegates to it, ~1x) and the cached
    sort pays off only for repeated sub-column (chunked) probes.
    """
    rng = np.random.default_rng(seed)
    probe_keys = rng.integers(0, key_domain, size=probe_rows, dtype=np.int64)
    measurements: List[SemiJoinKernelMeasurement] = []
    for filter_rows in filter_sizes:
        filter_keys = rng.integers(0, key_domain, size=filter_rows, dtype=np.int64)
        isin_seconds = _best_time(lambda: np.isin(probe_keys, filter_keys), repeats)
        oneshot_seconds = _best_time(lambda: semi_join_mask(probe_keys, filter_keys), repeats)
        index = HashIndex(filter_keys)
        index.contains(probe_keys)  # warm: reuse regime measures repeat probes
        indexed_seconds = _best_time(lambda: index.contains(probe_keys), repeats)
        measurements.append(
            SemiJoinKernelMeasurement(
                probe_rows=probe_rows,
                filter_rows=filter_rows,
                isin_seconds=isin_seconds,
                oneshot_seconds=oneshot_seconds,
                indexed_probe_seconds=indexed_seconds,
            )
        )
    return measurements


def format_semijoin_kernel_microbench(
    measurements: Sequence[SemiJoinKernelMeasurement],
) -> str:
    """Render the semi-join kernel sweep as a table."""
    lines = [
        "Semi-join membership kernels (probe side fixed, filter side varies)",
        f"{'filter rows':>12} {'np.isin (s)':>12} {'one-shot (s)':>12} {'reused (s)':>12} "
        f"{'1shot spdup':>13} {'reused spdup':>14}",
    ]
    for m in measurements:
        lines.append(
            f"{m.filter_rows:>12} {m.isin_seconds:>12.4f} {m.oneshot_seconds:>12.4f} "
            f"{m.indexed_probe_seconds:>12.4f} {m.oneshot_speedup:>12.1f}x {m.indexed_speedup:>13.1f}x"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class PartitionJoinMeasurement:
    """Monolithic vs radix-partitioned hash join timings at one build size."""

    build_rows: int
    probe_rows: int
    bits: int
    monolithic_build_seconds: float
    monolithic_probe_seconds: float
    partitioned_build_seconds: float
    partitioned_probe_seconds: float
    parallel_build_seconds: Optional[float] = None
    parallel_probe_seconds: Optional[float] = None
    process_probe_seconds: Optional[float] = None

    @property
    def monolithic_seconds(self) -> float:
        """Total monolithic join time (build + probe)."""
        return self.monolithic_build_seconds + self.monolithic_probe_seconds

    @property
    def partitioned_seconds(self) -> float:
        """Total partitioned join time (build + probe)."""
        return self.partitioned_build_seconds + self.partitioned_probe_seconds

    @property
    def speedup(self) -> float:
        """How many times faster the partitioned join is end to end."""
        if self.partitioned_seconds <= 0:
            return float("inf")
        return self.monolithic_seconds / self.partitioned_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (used for the ``BENCH_partition.json`` record)."""
        return {
            "build_rows": self.build_rows,
            "probe_rows": self.probe_rows,
            "bits": self.bits,
            "monolithic_build_seconds": self.monolithic_build_seconds,
            "monolithic_probe_seconds": self.monolithic_probe_seconds,
            "partitioned_build_seconds": self.partitioned_build_seconds,
            "partitioned_probe_seconds": self.partitioned_probe_seconds,
            "parallel_build_seconds": self.parallel_build_seconds,
            "parallel_probe_seconds": self.parallel_probe_seconds,
            "process_probe_seconds": self.process_probe_seconds,
            "speedup": self.speedup,
        }


#: Build-side sizes swept by the partition microbenchmark (the acceptance
#: point is the ≥1M-row build side).
DEFAULT_PARTITION_BUILD_SIZES = (1 << 18, 1 << 20)


def run_partition_microbench(
    build_sizes: Sequence[int] = DEFAULT_PARTITION_BUILD_SIZES,
    probe_rows: int = 1_000_000,
    bits: int = 8,
    key_domain: int = 2**62,
    seed: int = 13,
    repeats: int = 3,
    num_threads: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> List[PartitionJoinMeasurement]:
    """Compare monolithic vs radix-partitioned hash joins across build sizes.

    For each build size four variants run over the same data: the
    monolithic :class:`~repro.exec.kernels.HashIndex` (one O(n log n) stable
    sort, probes binary-searching the full build array), the serial
    :class:`~repro.exec.kernels.PartitionedHashIndex` (O(n) radix
    partitioning, per-partition sorts, probes searching one cache-resident
    partition), the partitioned join with its partition tasks dispatched
    through a :class:`~repro.exec.pipeline.MorselBackend` thread pool, and the
    monolithic probe fanned out through the
    :class:`~repro.exec.process.ProcessBackend` (morsels over shared-memory
    columns; partitioned builds/probes take closures and cannot cross the
    process boundary, so only the monolithic match has a process variant).
    ``num_threads`` / ``num_workers`` default to the machine's core count
    (capped at 4); pass ``0`` to skip the corresponding variant.  Build
    (index construction) and probe (matching) are timed separately; the huge
    ``key_domain`` keeps the bitmap fast path out of the way so the sweep
    measures the sort/search paths the partitioning targets.
    """
    import os as _os

    default_pool = min(4, _os.cpu_count() or 1)
    if num_threads is None:
        num_threads = default_pool
    if num_workers is None:
        num_workers = default_pool
    rng = np.random.default_rng(seed)
    probe_keys = rng.integers(0, key_domain, size=probe_rows, dtype=np.int64)
    measurements: List[PartitionJoinMeasurement] = []
    for build_rows in build_sizes:
        build_keys = rng.integers(0, key_domain, size=build_rows, dtype=np.int64)

        def mono_build():
            index = HashIndex(build_keys)
            index.prepare_match()
            return index

        mono_build_s = _best_time(mono_build, repeats)
        mono_index = mono_build()
        mono_probe_s = _best_time(lambda: mono_index.match(probe_keys), repeats)

        def part_build():
            index = PartitionedHashIndex(build_keys, bits=bits)
            index.build()
            return index

        part_build_s = _best_time(part_build, repeats)
        part_index = part_build()
        part_probe_s = _best_time(lambda: part_index.match(probe_keys), repeats)

        parallel_build_s = parallel_probe_s = None
        if num_threads:
            backend = MorselBackend(num_threads=num_threads)
            try:
                def par_build():
                    index = PartitionedHashIndex(build_keys, bits=bits)
                    index.build(run_tasks=backend.map_tasks)
                    return index

                parallel_build_s = _best_time(par_build, repeats)
                par_index = par_build()
                parallel_probe_s = _best_time(
                    lambda: par_index.match(probe_keys, run_tasks=backend.map_tasks), repeats
                )
            finally:
                backend.close()

        process_probe_s = None
        if num_workers:
            from repro.exec.process import ProcessBackend

            proc_backend = ProcessBackend(num_workers=num_workers)
            mono_index.prepare_match()  # freeze before shipping so only probes are timed
            process_probe_s = _best_time(
                lambda: proc_backend.match(probe_keys, mono_index), repeats
            )

        measurements.append(
            PartitionJoinMeasurement(
                build_rows=build_rows,
                probe_rows=probe_rows,
                bits=bits,
                monolithic_build_seconds=mono_build_s,
                monolithic_probe_seconds=mono_probe_s,
                partitioned_build_seconds=part_build_s,
                partitioned_probe_seconds=part_probe_s,
                parallel_build_seconds=parallel_build_s,
                parallel_probe_seconds=parallel_probe_s,
                process_probe_seconds=process_probe_s,
            )
        )
    return measurements


def format_partition_microbench(measurements: Sequence[PartitionJoinMeasurement]) -> str:
    """Render the partition sweep as a table."""
    lines = [
        "Radix-partitioned vs monolithic hash join (probe side fixed, build side varies)",
        f"{'build rows':>12} {'bits':>5} {'mono bld (s)':>13} {'mono prb (s)':>13} "
        f"{'part bld (s)':>13} {'part prb (s)':>13} {'par prb (s)':>12} "
        f"{'proc prb (s)':>13} {'speedup':>9}",
    ]

    def _opt(seconds: Optional[float], width: int) -> str:
        return f"{seconds:>{width}.4f}" if seconds is not None else f"{'-':>{width}}"

    for m in measurements:
        lines.append(
            f"{m.build_rows:>12} {m.bits:>5} {m.monolithic_build_seconds:>13.4f} "
            f"{m.monolithic_probe_seconds:>13.4f} {m.partitioned_build_seconds:>13.4f} "
            f"{m.partitioned_probe_seconds:>13.4f} {_opt(m.parallel_probe_seconds, 12)} "
            f"{_opt(m.process_probe_seconds, 13)} {m.speedup:>8.2f}x"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class TransferMicrobenchMeasurement:
    """Transfer-phase timings of one star query with the artifact cache off/cold/warm.

    Three configurations run the *same* query over the same data and plan:

    * ``no_artifact`` — artifact cache off (the default: every execution
      hashes each key column once and builds its own filters);
    * ``cold_artifact`` — artifact cache on, first execution (pays the
      artifact builds and freezes);
    * ``warm_artifact`` — artifact cache on, repeated execution against the
      now warm cache (the repeated-traffic regime).

    All three produce identical aggregates (asserted by the runner); only the
    transfer-phase seconds differ.
    """

    fact_rows: int
    dim_rows: int
    num_dims: int
    no_artifact_seconds: float
    cold_artifact_seconds: float
    warm_artifact_seconds: float
    warm_artifact_hits: int
    hash_reuse_hits: int
    selection_vector_rows: int

    @property
    def warm_speedup(self) -> float:
        """Repeated-query transfer speedup with a warm artifact cache."""
        if self.warm_artifact_seconds <= 0:
            return float("inf")
        return self.no_artifact_seconds / self.warm_artifact_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``BENCH_transfer.json`` record)."""
        return {
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "num_dims": self.num_dims,
            "no_artifact_seconds": self.no_artifact_seconds,
            "cold_artifact_seconds": self.cold_artifact_seconds,
            "warm_artifact_seconds": self.warm_artifact_seconds,
            "warm_artifact_hits": self.warm_artifact_hits,
            "hash_reuse_hits": self.hash_reuse_hits,
            "selection_vector_rows": self.selection_vector_rows,
            "warm_speedup": self.warm_speedup,
        }


#: Fact-side sizes swept by the transfer microbenchmark (the acceptance
#: point is the 1M-row fact side).
DEFAULT_TRANSFER_FACT_SIZES = (1 << 18, 1 << 20)


def _transfer_database(fact_rows: int, dim_rows: int, num_dims: int, seed: int):
    """A star-schema database + query exercising a full RPT transfer phase.

    Dimension filters keep roughly half of each dimension, so every forward
    step genuinely reduces the fact side and the backward pass has work to
    do — the shape where per-pass hashing dominates the transfer phase.
    """
    from repro.engine.database import Database
    from repro.expr import lt
    from repro.query import JoinCondition, QuerySpec, RelationRef

    rng = np.random.default_rng(seed)
    db = Database()
    fact: dict = {"v": np.arange(fact_rows, dtype=np.int64)}
    relations = []
    joins = []
    for d in range(num_dims):
        name = f"dim{d}"
        db.register_dataframe(
            name,
            {
                "id": np.arange(dim_rows, dtype=np.int64),
                "attr": rng.integers(0, 100, size=dim_rows, dtype=np.int64),
            },
            primary_key=["id"],
        )
        fact[f"d{d}_id"] = rng.integers(0, dim_rows, size=fact_rows, dtype=np.int64)
        relations.append(RelationRef(f"d{d}", name, lt("attr", 50)))
        joins.append(JoinCondition("f", f"d{d}_id", f"d{d}", "id"))
    db.register_dataframe("fact", fact)
    query = QuerySpec(
        name="transfer_microbench",
        relations=tuple([RelationRef("f", "fact")] + relations),
        joins=tuple(joins),
    )
    return db, query


def run_transfer_microbench(
    fact_sizes: Sequence[int] = DEFAULT_TRANSFER_FACT_SIZES,
    dim_rows: Optional[int] = None,
    num_dims: int = 2,
    seed: int = 23,
    repeats: int = 3,
) -> List[TransferMicrobenchMeasurement]:
    """Measure the transfer phase with the artifact cache off, cold and warm.

    For each fact size an RPT star query executes under the three
    configurations of :class:`TransferMicrobenchMeasurement` (same data,
    same plan; aggregates are asserted identical).  ``dim_rows`` defaults to
    ``fact_rows // 2`` so the dimension-side Bloom builds the artifact cache
    elides are a substantial share of the transfer work.  The reported
    seconds are the best transfer-phase wall time over ``repeats`` runs
    (warm-artifact runs all execute against the warmed cache).
    """
    from repro.engine.database import ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError

    def options(artifact_cache: bool):
        # Adaptive transfer is pinned off: this sweep isolates the artifact
        # cache, and skipped or bitmap-downgraded passes would remove the
        # filter builds being measured (the adaptive microbenchmark measures
        # those features against their own static baseline).
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend="serial",
                artifact_cache=artifact_cache,
                adaptive_transfer=False,
            )
        )

    measurements: List[TransferMicrobenchMeasurement] = []
    for fact_rows in fact_sizes:
        dims = dim_rows if dim_rows is not None else fact_rows // 2
        db, query = _transfer_database(fact_rows, dims, num_dims, seed)
        plan = db.optimizer_plan(query)

        def run(opts):
            return db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=opts)

        def best_transfer(opts, runs):
            best = None
            seconds = float("inf")
            for _ in range(max(runs, 1)):
                result = run(opts)
                if result.stats.timings.transfer < seconds:
                    seconds = result.stats.timings.transfer
                    best = result
            return best, seconds

        baseline, baseline_s = best_transfer(options(False), repeats)
        # First artifact run builds + freezes the artifacts (cold)...
        cold = run(options(True))
        cold_s = cold.stats.timings.transfer
        # ...every later one replays them (warm).
        warm, warm_s = best_transfer(options(True), repeats)

        for result in (cold, warm):
            if result.aggregates != baseline.aggregates:
                raise BenchmarkError(
                    "artifact-cached transfer run diverged from the uncached one: "
                    f"{result.aggregates} != {baseline.aggregates}"
                )

        measurements.append(
            TransferMicrobenchMeasurement(
                fact_rows=fact_rows,
                dim_rows=dims,
                num_dims=num_dims,
                no_artifact_seconds=baseline_s,
                cold_artifact_seconds=cold_s,
                warm_artifact_seconds=warm_s,
                warm_artifact_hits=warm.stats.artifact_cache_hits,
                hash_reuse_hits=warm.stats.hash_reuse_hits,
                selection_vector_rows=warm.stats.selection_vector_rows,
            )
        )
    return measurements


@dataclass(frozen=True)
class AdaptiveMicrobenchMeasurement:
    """Transfer-phase timings of one star query with adaptive execution on/off.

    Three configurations run the *same* query over the same data and plan:

    * ``static`` — adaptive transfer off (every compiled pass runs);
    * ``skip`` — yield-driven pass skipping only (``adaptive_transfer`` with
      the bitmap downgrade forced off);
    * ``full`` — skipping + exact-bitmap downgrade, i.e. the
      ``adaptive_transfer=True`` defaults.

    All three produce identical aggregates (asserted by the runner); only
    transfer-phase seconds, filter bytes, and the decision counters differ.
    The interesting contrast is per workload: on the ``low_yield`` workload
    (uncorrelated dimension filters that prune almost nothing) the
    controller cancels nearly the whole transfer phase, while on the
    ``high_yield`` workload (filters that genuinely reduce) it must stay
    out of the way.
    """

    workload: str
    fact_rows: int
    dim_rows: int
    num_dims: int
    keep_fraction: float
    static_seconds: float
    skip_seconds: float
    full_seconds: float
    static_bloom_bytes: int
    steps_skipped: int
    exact_downgrades: int

    @property
    def skip_speedup(self) -> float:
        """Transfer speedup from yield-driven skipping alone."""
        if self.skip_seconds <= 0:
            return float("inf")
        return self.static_seconds / self.skip_seconds

    @property
    def full_speedup(self) -> float:
        """Transfer speedup with skipping and the bitmap downgrade on."""
        if self.full_seconds <= 0:
            return float("inf")
        return self.static_seconds / self.full_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``BENCH_adaptive.json`` record)."""
        return {
            "workload": self.workload,
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "num_dims": self.num_dims,
            "keep_fraction": self.keep_fraction,
            "static_seconds": self.static_seconds,
            "skip_seconds": self.skip_seconds,
            "full_seconds": self.full_seconds,
            "static_bloom_bytes": self.static_bloom_bytes,
            "steps_skipped": self.steps_skipped,
            "exact_downgrades": self.exact_downgrades,
            "skip_speedup": self.skip_speedup,
            "full_speedup": self.full_speedup,
        }


#: (workload label, fraction of each dimension its filter keeps).  Keeping
#: ~99.9% of a dimension leaves its transfer passes pruning ~0.1% of the
#: fact side — below the adaptive controller's default 1% yield floor — so
#: the low-yield workload is where skipping must pay off; the high-yield
#: workload (50% filters) is where adaptive execution must not regress.
DEFAULT_ADAPTIVE_WORKLOADS = (("low_yield", 0.999), ("high_yield", 0.5))


def _adaptive_database(
    fact_rows: int, dim_rows: int, num_dims: int, keep_fraction: float, seed: int
):
    """A star-schema database whose dimension filters keep ``keep_fraction``.

    Dimension attributes are uniform over [0, 1000) and *uncorrelated* with
    the join keys, so a filter keeping fraction ``f`` of a dimension leaves
    each forward transfer pass eliminating only ``1 - f`` of the fact side —
    the knob that moves a workload between the high- and low-yield regimes.
    """
    from repro.engine.database import Database
    from repro.expr import lt
    from repro.query import JoinCondition, QuerySpec, RelationRef

    rng = np.random.default_rng(seed)
    db = Database()
    fact: dict = {"v": np.arange(fact_rows, dtype=np.int64)}
    relations = []
    joins = []
    bound = max(int(round(1000 * keep_fraction)), 1)
    for d in range(num_dims):
        name = f"dim{d}"
        db.register_dataframe(
            name,
            {
                "id": np.arange(dim_rows, dtype=np.int64),
                "attr": rng.integers(0, 1000, size=dim_rows, dtype=np.int64),
            },
            primary_key=["id"],
        )
        fact[f"d{d}_id"] = rng.integers(0, dim_rows, size=fact_rows, dtype=np.int64)
        relations.append(RelationRef(f"d{d}", name, lt("attr", bound)))
        joins.append(JoinCondition("f", f"d{d}_id", f"d{d}", "id"))
    db.register_dataframe("fact", fact)
    query = QuerySpec(
        name=f"adaptive_microbench_{keep_fraction}",
        relations=tuple([RelationRef("f", "fact")] + relations),
        joins=tuple(joins),
    )
    return db, query


def run_adaptive_microbench(
    fact_rows: int = 1 << 20,
    dim_rows: Optional[int] = None,
    num_dims: int = 3,
    workloads: Sequence[Tuple[str, float]] = DEFAULT_ADAPTIVE_WORKLOADS,
    seed: int = 29,
    repeats: int = 3,
) -> List["AdaptiveMicrobenchMeasurement"]:
    """Measure the transfer phase with adaptive execution on vs off.

    For each ``(workload, keep_fraction)`` an RPT star query executes under
    the three configurations of :class:`AdaptiveMicrobenchMeasurement` (same
    data, same plan; aggregates asserted identical).  ``dim_rows`` defaults
    to ``fact_rows // 16`` — dimensions large enough that their passes cost
    real time.  Reported seconds are the best transfer-phase wall time over
    ``repeats`` runs.
    """
    from repro.engine.database import ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError

    def options(adaptive: bool, bitmap: bool):
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend="serial",
                adaptive_transfer=adaptive,
                bitmap_downgrade=bitmap,
            )
        )

    measurements: List[AdaptiveMicrobenchMeasurement] = []
    dims = dim_rows if dim_rows is not None else fact_rows // 16
    for workload, keep_fraction in workloads:
        db, query = _adaptive_database(fact_rows, dims, num_dims, keep_fraction, seed)
        plan = db.optimizer_plan(query)

        def best_transfer(opts):
            best = None
            seconds = float("inf")
            for _ in range(max(repeats, 1)):
                result = db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=opts)
                if result.stats.timings.transfer < seconds:
                    seconds = result.stats.timings.transfer
                    best = result
            return best, seconds

        static, static_s = best_transfer(options(False, False))
        skip, skip_s = best_transfer(options(True, False))
        full, full_s = best_transfer(options(True, True))

        for result in (skip, full):
            if result.aggregates != static.aggregates:
                raise BenchmarkError(
                    "adaptive transfer run diverged from the static baseline: "
                    f"{result.aggregates} != {static.aggregates}"
                )

        measurements.append(
            AdaptiveMicrobenchMeasurement(
                workload=workload,
                fact_rows=fact_rows,
                dim_rows=dims,
                num_dims=num_dims,
                keep_fraction=keep_fraction,
                static_seconds=static_s,
                skip_seconds=skip_s,
                full_seconds=full_s,
                static_bloom_bytes=static.stats.bloom_bytes,
                steps_skipped=full.stats.adaptive_steps_skipped,
                exact_downgrades=full.stats.adaptive_exact_downgrades,
            )
        )
    return measurements


def format_adaptive_microbench(
    measurements: Sequence["AdaptiveMicrobenchMeasurement"],
) -> str:
    """Render the adaptive-transfer sweep as a table."""
    lines = [
        "Adaptive transfer: yield-driven skipping + bitmap downgrade vs static",
        f"{'workload':<12} {'fact rows':>10} {'static (s)':>11} {'skip (s)':>9} "
        f"{'full (s)':>9} {'skip spdup':>11} {'full spdup':>11} {'skipped':>8} {'exact':>6}",
    ]
    for m in measurements:
        lines.append(
            f"{m.workload:<12} {m.fact_rows:>10} {m.static_seconds:>11.4f} "
            f"{m.skip_seconds:>9.4f} {m.full_seconds:>9.4f} {m.skip_speedup:>10.2f}x "
            f"{m.full_speedup:>10.2f}x {m.steps_skipped:>8} {m.exact_downgrades:>6}"
        )
    return "\n".join(lines)


def format_transfer_microbench(
    measurements: Sequence[TransferMicrobenchMeasurement],
) -> str:
    """Render the transfer-phase caching sweep as a table."""
    lines = [
        "Transfer phase: artifact cache off vs cold vs warm",
        f"{'fact rows':>12} {'dim rows':>10} {'no art. (s)':>12} {'cold art. (s)':>14} "
        f"{'warm art. (s)':>14} {'warm spdup':>11}",
    ]
    for m in measurements:
        lines.append(
            f"{m.fact_rows:>12} {m.dim_rows:>10} {m.no_artifact_seconds:>12.4f} "
            f"{m.cold_artifact_seconds:>14.4f} {m.warm_artifact_seconds:>14.4f} "
            f"{m.warm_speedup:>10.2f}x"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ScalingMeasurement:
    """Thread-vs-process scaling curves of one star-probe query.

    The same RPT star query runs end to end under the serial backend, the
    thread-parallel backend, and the process backend at each worker count in
    the sweep; ``thread_seconds`` / ``process_seconds`` are
    ``(workers, best wall seconds)`` curves over the same data and plan.
    All runs are asserted bit-identical to the serial baseline.
    """

    fact_rows: int
    dim_rows: int
    num_dims: int
    serial_seconds: float
    thread_seconds: Tuple[Tuple[int, float], ...]
    process_seconds: Tuple[Tuple[int, float], ...]
    shm_bytes_mapped: int

    @property
    def best_thread_seconds(self) -> float:
        """Fastest thread-backend run across the worker sweep."""
        return min(seconds for _, seconds in self.thread_seconds)

    @property
    def best_process_seconds(self) -> float:
        """Fastest process-backend run across the worker sweep."""
        return min(seconds for _, seconds in self.process_seconds)

    @property
    def process_over_thread_speedup(self) -> float:
        """Best process time vs best thread time (the GIL-escape factor)."""
        if self.best_process_seconds <= 0:
            return float("inf")
        return self.best_thread_seconds / self.best_process_seconds

    @property
    def process_over_serial_speedup(self) -> float:
        """Best process time vs the serial baseline."""
        if self.best_process_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.best_process_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``BENCH_scaling.json`` record)."""
        return {
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "num_dims": self.num_dims,
            "serial_seconds": self.serial_seconds,
            "thread_seconds": [list(point) for point in self.thread_seconds],
            "process_seconds": [list(point) for point in self.process_seconds],
            "shm_bytes_mapped": self.shm_bytes_mapped,
            "best_thread_seconds": self.best_thread_seconds,
            "best_process_seconds": self.best_process_seconds,
            "process_over_thread_speedup": self.process_over_thread_speedup,
            "process_over_serial_speedup": self.process_over_serial_speedup,
        }


def _default_worker_counts() -> Tuple[int, ...]:
    """Powers of two up to the machine's core count (always includes 1)."""
    import os as _os

    cores = _os.cpu_count() or 1
    counts = [1]
    while counts[-1] * 2 <= cores:
        counts.append(counts[-1] * 2)
    return tuple(counts)


def run_scaling_microbench(
    fact_rows: int = 1 << 20,
    dim_rows: Optional[int] = None,
    num_dims: int = 2,
    worker_counts: Optional[Sequence[int]] = None,
    seed: int = 31,
    repeats: int = 2,
) -> ScalingMeasurement:
    """Measure thread-vs-process scaling on a 1M-row star-probe query.

    Reuses the transfer microbenchmark's star generator (half-selective
    dimension filters, so the probe passes do real pruning work) and runs
    the same query + plan under ``serial``, ``parallel`` (threads), and
    ``process`` at each worker count.  Reported seconds are the best end-to-end wall time
    over ``repeats`` runs; aggregates are asserted identical to serial.
    """
    from repro.engine.database import ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError
    from repro.exec.process import shutdown_workers

    counts = tuple(worker_counts) if worker_counts is not None else _default_worker_counts()
    dims = dim_rows if dim_rows is not None else fact_rows // 2
    db, query = _transfer_database(fact_rows, dims, num_dims, seed)
    plan = db.optimizer_plan(query)

    def options(backend: str, workers: int) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend=backend,
                num_threads=workers,
                num_workers=workers,
                artifact_cache=False,
            )
        )

    def best_run(backend: str, workers: int):
        best = None
        seconds = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            result = db.execute(query, mode=ExecutionMode.RPT, plan=plan, options=options(backend, workers))
            elapsed = time.perf_counter() - start
            if elapsed < seconds:
                seconds = elapsed
                best = result
        return best, seconds

    serial, serial_s = best_run("serial", 1)
    thread_curve = []
    process_curve = []
    shm_bytes = 0
    try:
        for workers in counts:
            thread_result, thread_s = best_run("parallel", workers)
            process_result, process_s = best_run("process", workers)
            for result in (thread_result, process_result):
                if result.aggregates != serial.aggregates:
                    raise BenchmarkError(
                        "parallel run diverged from the serial baseline: "
                        f"{result.aggregates} != {serial.aggregates}"
                    )
            thread_curve.append((workers, thread_s))
            process_curve.append((workers, process_s))
            shm_bytes = max(shm_bytes, process_result.stats.shm_bytes_mapped)
    finally:
        db.close()
        shutdown_workers()

    return ScalingMeasurement(
        fact_rows=fact_rows,
        dim_rows=dims,
        num_dims=num_dims,
        serial_seconds=serial_s,
        thread_seconds=tuple(thread_curve),
        process_seconds=tuple(process_curve),
        shm_bytes_mapped=shm_bytes,
    )


def format_scaling_microbench(measurement: ScalingMeasurement) -> str:
    """Render the thread-vs-process scaling curves as a table."""
    lines = [
        "Backend scaling on a star-probe query (serial vs threads vs processes)",
        f"fact rows {measurement.fact_rows}, dims {measurement.num_dims} x "
        f"{measurement.dim_rows}, serial {measurement.serial_seconds:.4f}s, "
        f"shm mapped {measurement.shm_bytes_mapped}B",
        f"{'workers':>8} {'threads (s)':>12} {'process (s)':>12} {'proc vs thread':>15}",
    ]
    process_by_workers = dict(measurement.process_seconds)
    for workers, thread_s in measurement.thread_seconds:
        process_s = process_by_workers.get(workers)
        ratio = f"{thread_s / process_s:>14.2f}x" if process_s else f"{'-':>15}"
        process_text = f"{process_s:>12.4f}" if process_s is not None else f"{'-':>12}"
        lines.append(f"{workers:>8} {thread_s:>12.4f} {process_text} {ratio}")
    return "\n".join(lines)


@dataclass(frozen=True)
class DeadlineOverheadMeasurement:
    """Cost of deadline/cancellation checks on the 1M-row star probe.

    The same RPT star query runs on the serial backend twice: once with no
    deadline (kernels run whole-column, the zero-overhead configuration)
    and once with a :class:`~repro.exec.faults.CancelToken` installed via a
    generous ``timeout_seconds`` — which switches every long kernel to
    chunked execution with a cancellation check per chunk.  The gap between
    the two best-of-``repeats`` times is the full price of cancellability;
    the CI gate asserts it stays under 2% (with a small absolute slack so
    timer noise on sub-second runs cannot flake the gate).
    """

    fact_rows: int
    dim_rows: int
    num_dims: int
    baseline_seconds: float
    deadline_seconds: float

    @property
    def overhead_seconds(self) -> float:
        """Absolute extra wall time with the cancel token installed."""
        return self.deadline_seconds - self.baseline_seconds

    @property
    def overhead_fraction(self) -> float:
        """Relative overhead of deadline checks (negative means in-noise)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.overhead_seconds / self.baseline_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (merged into ``BENCH_scaling.json``)."""
        return {
            "kind": "deadline_overhead",
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "num_dims": self.num_dims,
            "baseline_seconds": self.baseline_seconds,
            "deadline_seconds": self.deadline_seconds,
            "overhead_seconds": self.overhead_seconds,
            "overhead_fraction": self.overhead_fraction,
        }


def run_deadline_overhead_microbench(
    fact_rows: int = 1 << 20,
    dim_rows: Optional[int] = None,
    num_dims: int = 2,
    seed: int = 31,
    repeats: int = 3,
    timeout_seconds: float = 3600.0,
) -> DeadlineOverheadMeasurement:
    """Measure what deadline/cancellation checks cost on the star probe.

    Reuses the scaling microbenchmark's 1M-row star query on the serial
    backend.  The deadline run sets ``timeout_seconds`` far in the future,
    so the query never times out but pays the full cancellable-execution
    machinery: chunked kernels plus a monotonic-clock check per chunk and
    per morsel barrier.  Both configurations are asserted bit-identical.
    """
    from repro.engine.database import ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError

    dims = dim_rows if dim_rows is not None else fact_rows // 2
    db, query = _transfer_database(fact_rows, dims, num_dims, seed)
    plan = db.optimizer_plan(query)

    def options(timeout: Optional[float]) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend="serial",
                timeout_seconds=timeout,
                artifact_cache=False,
            )
        )

    def best_run(timeout: Optional[float]):
        best = None
        seconds = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            result = db.execute(
                query, mode=ExecutionMode.RPT, plan=plan, options=options(timeout)
            )
            elapsed = time.perf_counter() - start
            if elapsed < seconds:
                seconds = elapsed
                best = result
        return best, seconds

    try:
        baseline, baseline_s = best_run(None)
        deadline, deadline_s = best_run(timeout_seconds)
        if deadline.aggregates != baseline.aggregates:
            raise BenchmarkError(
                "deadline run diverged from the no-deadline baseline: "
                f"{deadline.aggregates} != {baseline.aggregates}"
            )
    finally:
        db.close()

    return DeadlineOverheadMeasurement(
        fact_rows=fact_rows,
        dim_rows=dims,
        num_dims=num_dims,
        baseline_seconds=baseline_s,
        deadline_seconds=deadline_s,
    )


def format_deadline_overhead_microbench(measurement: DeadlineOverheadMeasurement) -> str:
    """Render the deadline-check overhead measurement."""
    return "\n".join(
        [
            "Deadline/cancellation check overhead on the star-probe query (serial)",
            f"fact rows {measurement.fact_rows}, dims {measurement.num_dims} x "
            f"{measurement.dim_rows}",
            f"{'no deadline':>16} {measurement.baseline_seconds:.4f}s",
            f"{'with deadline':>16} {measurement.deadline_seconds:.4f}s",
            f"{'overhead':>16} {measurement.overhead_seconds * 1e3:+.2f}ms "
            f"({measurement.overhead_fraction * 100:+.2f}%)",
        ]
    )


@dataclass(frozen=True)
class ObservabilityMeasurement:
    """Cost of span tracing on the 1M-row star probe.

    The same RPT star query runs on the serial backend twice: untraced
    (``tracing=False``, the zero-overhead configuration — the run loop
    never touches the tracer) and traced (``tracing=True``: one ``op``
    span per dispatched op under ``phase`` spans, plus decision events).
    The gap between the two best-of-``repeats`` times is the full price of
    observability; the CI gate asserts it stays under 2% (with a small
    absolute slack so timer noise on sub-second runs cannot flake the
    gate).  Aggregates are asserted bit-identical, and the traced run must
    actually produce a span tree.
    """

    fact_rows: int
    dim_rows: int
    num_dims: int
    baseline_seconds: float
    traced_seconds: float
    span_count: int

    @property
    def overhead_seconds(self) -> float:
        """Absolute extra wall time with tracing enabled."""
        return self.traced_seconds - self.baseline_seconds

    @property
    def overhead_fraction(self) -> float:
        """Relative overhead of tracing (negative means in-noise)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.overhead_seconds / self.baseline_seconds

    def as_dict(self) -> dict:
        """JSON-ready representation (written to ``BENCH_observability.json``)."""
        return {
            "kind": "observability_overhead",
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "num_dims": self.num_dims,
            "baseline_seconds": self.baseline_seconds,
            "traced_seconds": self.traced_seconds,
            "overhead_seconds": self.overhead_seconds,
            "overhead_fraction": self.overhead_fraction,
            "span_count": self.span_count,
        }


def run_observability_microbench(
    fact_rows: int = 1 << 20,
    dim_rows: Optional[int] = None,
    num_dims: int = 2,
    seed: int = 31,
    repeats: int = 3,
) -> ObservabilityMeasurement:
    """Measure what span tracing costs on the star probe.

    Reuses the scaling microbenchmark's 1M-row star query on the serial
    backend with caches pinned off, untraced vs traced.  Both
    configurations are asserted bit-identical, and the traced best run
    must carry a non-trivial span tree (query -> phase -> op).
    """
    from repro.engine.database import ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError

    dims = dim_rows if dim_rows is not None else fact_rows // 2
    db, query = _transfer_database(fact_rows, dims, num_dims, seed)
    plan = db.optimizer_plan(query)

    def options(tracing: bool) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend="serial",
                tracing=tracing,
                artifact_cache=False,
            )
        )

    def best_run(tracing: bool):
        best = None
        seconds = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            result = db.execute(
                query, mode=ExecutionMode.RPT, plan=plan, options=options(tracing)
            )
            elapsed = time.perf_counter() - start
            if elapsed < seconds:
                seconds = elapsed
                best = result
        return best, seconds

    try:
        baseline, baseline_s = best_run(False)
        traced, traced_s = best_run(True)
        if traced.aggregates != baseline.aggregates:
            raise BenchmarkError(
                "traced run diverged from the untraced baseline: "
                f"{traced.aggregates} != {baseline.aggregates}"
            )
        if baseline.trace is not None:
            raise BenchmarkError("untraced run unexpectedly produced a span tree")
        if traced.trace is None:
            raise BenchmarkError("traced run produced no span tree")
        span_count = sum(1 for _ in traced.trace.walk())
        if not traced.trace.find("op"):
            raise BenchmarkError("traced run recorded no op spans")
    finally:
        db.close()

    return ObservabilityMeasurement(
        fact_rows=fact_rows,
        dim_rows=dims,
        num_dims=num_dims,
        baseline_seconds=baseline_s,
        traced_seconds=traced_s,
        span_count=span_count,
    )


def format_observability_microbench(measurement: ObservabilityMeasurement) -> str:
    """Render the tracing-overhead measurement."""
    return "\n".join(
        [
            "Span-tracing overhead on the star-probe query (serial)",
            f"fact rows {measurement.fact_rows}, dims {measurement.num_dims} x "
            f"{measurement.dim_rows}",
            f"{'untraced':>16} {measurement.baseline_seconds:.4f}s",
            f"{'traced':>16} {measurement.traced_seconds:.4f}s "
            f"({measurement.span_count} spans)",
            f"{'overhead':>16} {measurement.overhead_seconds * 1e3:+.2f}ms "
            f"({measurement.overhead_fraction * 100:+.2f}%)",
        ]
    )


def _times(fn, repeats: int) -> List[float]:
    times = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _best_time(fn, repeats: int) -> float:
    return min(_times(fn, repeats))


@dataclass(frozen=True)
class EncodingMeasurement:
    """Raw-vs-encoded scan times and shared-memory footprint of one sweep.

    The scan half measures the same selective filter twice over identical
    data: once through ``Expression.evaluate`` (the raw path — ordered
    string comparisons materialize every string) and once through the
    code-space kernel with zone-map block skipping
    (:func:`repro.expr.codespace.evaluate`).  Masks are asserted
    bit-identical before timing.  The shm half runs the scaling
    benchmark's star-probe query on the process backend with the hash
    cache pinned off (the shared-memory gather regime) with encodings off
    and on, and records both mapped footprints; aggregates are asserted
    identical.
    """

    rows: int
    string_raw_seconds: float
    string_encoded_seconds: float
    range_raw_seconds: float
    range_encoded_seconds: float
    range_blocks_skipped: int
    range_blocks_total: int
    filter_raw_bytes: int
    filter_encoded_bytes: int
    raw_shm_bytes_mapped: int
    encoded_shm_bytes_mapped: int
    #: Noise estimate of the range-scan ratio: the wider of the two sides'
    #: (max - min) / min over the repeats.
    range_scan_spread: float = 0.0

    @property
    def string_scan_speedup(self) -> float:
        """Raw over encoded wall time of the selective string scan."""
        if self.string_encoded_seconds <= 0:
            return float("inf")
        return self.string_raw_seconds / self.string_encoded_seconds

    @property
    def range_scan_speedup(self) -> float:
        """Raw over encoded wall time of the selective range scan."""
        if self.range_encoded_seconds <= 0:
            return float("inf")
        return self.range_raw_seconds / self.range_encoded_seconds

    @property
    def filter_compression_ratio(self) -> float:
        """Raw over encoded bytes of the two filtered columns."""
        if self.filter_encoded_bytes <= 0:
            return float("inf")
        return self.filter_raw_bytes / self.filter_encoded_bytes

    @property
    def shm_reduction(self) -> float:
        """Fractional drop in mapped shared-memory bytes (0.5 = halved)."""
        if self.raw_shm_bytes_mapped <= 0:
            return 0.0
        return 1.0 - self.encoded_shm_bytes_mapped / self.raw_shm_bytes_mapped

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``BENCH_encoding.json`` record)."""
        return {
            "rows": self.rows,
            "string_raw_seconds": self.string_raw_seconds,
            "string_encoded_seconds": self.string_encoded_seconds,
            "range_raw_seconds": self.range_raw_seconds,
            "range_encoded_seconds": self.range_encoded_seconds,
            "range_blocks_skipped": self.range_blocks_skipped,
            "range_blocks_total": self.range_blocks_total,
            "filter_raw_bytes": self.filter_raw_bytes,
            "filter_encoded_bytes": self.filter_encoded_bytes,
            "raw_shm_bytes_mapped": self.raw_shm_bytes_mapped,
            "encoded_shm_bytes_mapped": self.encoded_shm_bytes_mapped,
            "string_scan_speedup": self.string_scan_speedup,
            "range_scan_speedup": self.range_scan_speedup,
            "range_scan_spread": self.range_scan_spread,
            "filter_compression_ratio": self.filter_compression_ratio,
            "shm_reduction": self.shm_reduction,
        }


#: Distinct status strings in the encoding microbenchmark's scan table
#: (64 values keep dictionary codes one byte wide).
_ENCODING_BENCH_NDV = 64


def run_encoding_microbench(
    rows: int = 1 << 20,
    dim_rows: Optional[int] = None,
    num_dims: int = 2,
    num_workers: int = 2,
    seed: int = 37,
    repeats: int = 3,
) -> EncodingMeasurement:
    """Measure block-encoded execution against the raw paths it replaces.

    Scan half: a ``rows``-row table with a low-NDV string column (random,
    so no block skips — the win is staying in dictionary code space) and a
    sorted ``int64`` timestamp column (the win is zone maps skipping ~99%
    of blocks for a 1% range).  Both filters run raw and encoded; masks
    are asserted bit-identical and the best of ``repeats`` wall times is
    kept per path.

    Shm half: the transfer star-probe query (1M-row fact side by default)
    on the process backend in ``YANNAKAKIS`` mode — exact semi-join probes
    ship the key column itself through the shared-memory arena (Bloom probes
    replay the parent's cached hashing pass and ship no column) — once with
    encodings off and once on.  Join-key columns bit-pack to
    32-bit codes, so the encoded run maps about half the bytes; aggregates
    are asserted identical to the raw run.
    """
    from repro.engine.database import Database, ExecutionOptions
    from repro.engine.modes import ExecutionConfig, ExecutionMode
    from repro.errors import BenchmarkError
    from repro.exec.process import shutdown_workers
    from repro.expr import between, codespace, lt

    rng = np.random.default_rng(seed)
    statuses = [f"status_{i:03d}" for i in range(_ENCODING_BENCH_NDV)]
    codes = rng.integers(0, _ENCODING_BENCH_NDV, size=rows)
    db = Database()
    db.register_dataframe(
        "events",
        {
            "ts": np.arange(rows, dtype=np.int64),
            "status": [statuses[i] for i in codes],
        },
    )
    table = db.catalog.table("events")
    store = db.catalog.encodings

    # ~6% selective ordered string comparison; raw evaluation decodes all
    # `rows` strings, the code-space kernel is one integer threshold test.
    string_expr = lt("status", statuses[4])
    # ~1% selective range over the sorted timestamps; zone maps skip every
    # block outside the range.
    lo = rows // 2
    range_expr = between("ts", lo, lo + rows // 100 - 1)

    range_result = None
    try:
        for expr in (string_expr, range_expr):
            raw_mask = np.asarray(expr.evaluate(table), dtype=bool)
            encoded = codespace.evaluate(expr, table, store)
            if encoded is None or not np.array_equal(raw_mask, encoded.mask):
                raise BenchmarkError(f"encoded scan diverged from raw evaluation for {expr!r}")
            if expr is range_expr:
                range_result = encoded
        string_raw_s = _best_time(lambda: string_expr.evaluate(table), repeats)
        string_encoded_s = _best_time(lambda: codespace.evaluate(string_expr, table, store), repeats)
        range_raw = _times(lambda: range_expr.evaluate(table), repeats)
        range_encoded = _times(lambda: codespace.evaluate(range_expr, table, store), repeats)
        range_raw_s, range_encoded_s = min(range_raw), min(range_encoded)
        range_spread = max((max(t) - min(t)) / min(t) for t in (range_raw, range_encoded))
        filter_raw_bytes = sum(int(table.column(c).data.nbytes) for c in ("ts", "status"))
        filter_encoded_bytes = sum(store.encoded_bytes(table, c) for c in ("ts", "status"))
    finally:
        db.close()

    dims = dim_rows if dim_rows is not None else rows // 2
    star_db, star_query = _transfer_database(rows, dims, num_dims, seed)
    plan = star_db.optimizer_plan(star_query)

    def star_options(encodings: bool) -> ExecutionOptions:
        return ExecutionOptions(
            execution=ExecutionConfig(
                backend="process",
                num_workers=num_workers,
                artifact_cache=False,
                encodings=encodings,
            )
        )

    try:
        raw_star = star_db.execute(
            star_query, mode=ExecutionMode.YANNAKAKIS, plan=plan, options=star_options(False)
        )
        encoded_star = star_db.execute(
            star_query, mode=ExecutionMode.YANNAKAKIS, plan=plan, options=star_options(True)
        )
        if encoded_star.aggregates != raw_star.aggregates:
            raise BenchmarkError(
                "encoded star probe diverged from the raw baseline: "
                f"{encoded_star.aggregates} != {raw_star.aggregates}"
            )
    finally:
        star_db.close()
        shutdown_workers()

    return EncodingMeasurement(
        rows=rows,
        string_raw_seconds=string_raw_s,
        string_encoded_seconds=string_encoded_s,
        range_raw_seconds=range_raw_s,
        range_encoded_seconds=range_encoded_s,
        range_blocks_skipped=int(range_result.blocks_skipped),
        range_blocks_total=int(range_result.blocks_total),
        filter_raw_bytes=filter_raw_bytes,
        filter_encoded_bytes=filter_encoded_bytes,
        raw_shm_bytes_mapped=int(raw_star.stats.shm_bytes_mapped),
        encoded_shm_bytes_mapped=int(encoded_star.stats.shm_bytes_mapped),
        range_scan_spread=range_spread,
    )


def format_encoding_microbench(measurement: EncodingMeasurement) -> str:
    """Render the raw-vs-encoded scan and shm comparison as a table."""
    m = measurement
    return "\n".join(
        [
            "Block-encoded scans vs raw evaluation (selective filters, sorted + random data)",
            f"rows {m.rows}, filter columns {m.filter_raw_bytes}B raw -> "
            f"{m.filter_encoded_bytes}B encoded ({m.filter_compression_ratio:.1f}x)",
            f"{'scan':>8} {'raw (s)':>10} {'encoded (s)':>12} {'speedup':>8} {'blocks skipped':>15}",
            f"{'string':>8} {m.string_raw_seconds:>10.4f} {m.string_encoded_seconds:>12.4f} "
            f"{m.string_scan_speedup:>7.1f}x {'-':>15}",
            f"{'range':>8} {m.range_raw_seconds:>10.4f} {m.range_encoded_seconds:>12.4f} "
            f"{m.range_scan_speedup:>7.1f}x "
            f"{f'{m.range_blocks_skipped}/{m.range_blocks_total}':>15}"
            f"  (repeat spread {m.range_scan_spread:.0%})",
            f"process-backend star probe: shm mapped {m.raw_shm_bytes_mapped}B raw -> "
            f"{m.encoded_shm_bytes_mapped}B encoded ({m.shm_reduction:.0%} reduction)",
        ]
    )
