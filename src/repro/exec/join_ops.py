"""Join-phase handlers: join-scoped ``BloomBuild`` / ``BloomProbe``, ``HashBuild``, ``HashProbe``.

The join phase flows through late-materialized
:class:`~repro.exec.relation.IntermediateResult` operands; the ops of one
join hand their state to each other through the join's
:class:`~repro.exec.run_state.JoinBuild` record.

Radix partitioning is ``HashBuild``'s run-time choice, not a plan shape: a
single-attribute build side that has :data:`PARTITION_THRESHOLD` rows or more
*once materialized* is indexed as a
:class:`~repro.exec.kernels.PartitionedHashIndex` (``[radix 2^6]`` in the op
trace), anything smaller as one sorted :class:`~repro.exec.kernels.HashIndex`,
and ``HashProbe`` matches against whichever it finds.  The transfer phase
makes most build sides small whatever the join order, so the decision waits
for the rows rather than trusting a pre-transfer estimate.  Partitions are
the granularity at which the memory governor reserves, spills and reloads a
partitioned build, and one independent task each for a thread pool.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.bloom.bloom_filter import BloomFilter, hash_keys, key_patterns
from repro.errors import ExecutionError
from repro.exec.backends import BloomPassProbe
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    PartitionedHashIndex,
    bloom_probe_cost,
    combine_key_columns_pair,
    hash_probe_cost,
)
from repro.exec.relation import IntermediateResult
from repro.exec.run_state import JoinBuild, RunState
from repro.exec.statistics import JoinStepStats, OpStats
from repro.exec.transfer_ops import full_bloom_pass
from repro.plan.physical import BloomBuild, BloomProbe, HashBuild, HashProbe, Operand
from repro.query import PostJoinPredicate

#: Materialized build rows at which a single-attribute hash join is
#: radix-partitioned.  Below this a monolithic sort fits the caches and the
#: partitioning pass is pure overhead.
PARTITION_THRESHOLD = 1 << 17
#: Radix bits of a partitioned join (2^6 = 64 partitions).
PARTITION_BITS = 6


# ---------------------------------------------------------------------------
# Join-scoped Bloom pair (the Bloom Join baseline's per-join prefilter)
# ---------------------------------------------------------------------------
def bloom_build(run: RunState, op: BloomBuild, record: OpStats) -> None:
    build_side = run.materialize(op.source)
    probe = run.materialize(op.target)
    record.rows_in = record.rows_out = build_side.num_rows
    if build_side.num_rows == 0:
        record.skipped = True
        return
    # The raw pair keys are needed either way — the upcoming hash join
    # consumes them — but the SIP filter's insert and probe replay the
    # cached column pass instead of re-hashing them.
    probe_keys, build_keys = _pair_keys(run, op.attributes, probe, build_side)
    build = JoinBuild(
        keys=build_keys,
        probe_keys=probe_keys,
        bloom=BloomFilter(expected_keys=build_side.num_rows, fpr=run.ex.join.fpr),
    )
    if len(op.attributes) == 1:
        build_hashes, build_patterns = _result_bloom_pass(
            run, op.attributes[0], build_side, build_keys
        )
        build.bloom.insert(hashes=build_hashes, patterns=build_patterns)
        build.probe_pass = _result_bloom_pass(run, op.attributes[0], probe, probe_keys)
    else:
        build.bloom.insert(build_keys)
    run.builds[op.step_id] = build


def bloom_probe(run: RunState, op: BloomProbe, record: OpStats) -> None:
    probe = run.materialize(op.target)
    rows_before = record.rows_in = record.rows_out = probe.num_rows
    build = run.builds.get(op.step_id)
    if build is None:  # empty build side: its BloomBuild staged nothing
        record.skipped = True
        return
    if build.probe_pass is not None:
        hits = run.ex.backend.probe_mask(build.probe_pass, BloomPassProbe(build.bloom))
    else:
        hits = run.ex.backend.probe_mask(build.probe_keys, build.bloom.probe)
    keep = np.nonzero(hits)[0]
    reduced = probe.take(keep)
    run.results[op.target] = reduced
    run.stats.abstract_cost += bloom_probe_cost(int(hits.shape[0]), build.bloom.size_bytes)
    # Hand the already-filtered pair keys to the upcoming hash join.
    build.probe_keys = build.probe_keys[keep]
    build.bloom_eliminated = rows_before - int(keep.shape[0])
    build.bloom = build.probe_pass = None
    record.rows_out = reduced.num_rows


# ---------------------------------------------------------------------------
# Hash join
# ---------------------------------------------------------------------------
def hash_build(run: RunState, op: HashBuild, record: OpStats) -> None:
    build_side = run.materialize(op.input)
    record.rows_in = record.rows_out = build_side.num_rows
    # A join-scoped Bloom pair has already staged the pair keys, if it ran.
    build = run.builds.setdefault(op.build_id, JoinBuild())
    build.result = build_side
    single = len(op.attributes) == 1
    partitioned = single and build_side.num_rows >= PARTITION_THRESHOLD
    if partitioned:
        if build.keys is None:
            build.keys = _single_attribute_keys(run, op.attributes[0], build_side)
        build.index = PartitionedHashIndex(build.keys, bits=PARTITION_BITS)
        record.radix_bits = build.index.bits
    elif single or build.keys is not None:
        build.index = _monolithic_index(run, op, build, build_side)
    if run.ex.governor is not None:
        _reserve_build(run, op.build_id, build)
    if partitioned:
        # Per-partition index builds are independent partial builds;
        # map_tasks is the pipeline breaker that merges them (thread pools
        # fan out).
        build.index.build(run_tasks=run.ex.backend.map_tasks)


def _reserve_build(run: RunState, build_id: int, build: JoinBuild) -> None:
    """Reserve a staged build side: its rows and keys, then each partition.

    The materialized rows of a partitioned build are reserved like a
    monolithic one's; the partitioned key/order copies are reserved per
    partition (the granularity the governor spills at).
    """
    size = sum(int(arr.nbytes) for arr in build.result.positions.values())
    if build.keys is not None:
        size += int(build.keys.nbytes)
    elif build.index is not None:
        size += int(build.index.keys.nbytes)
    run.governed_reserve(f"build:{build_id}", size)
    if isinstance(build.index, PartitionedHashIndex):
        for p in range(build.index.num_partitions):
            nbytes = build.index.partition_bytes(p)
            if nbytes:
                run.governed_reserve(f"partition:{build_id}:{p}", nbytes)


def _monolithic_index(
    run: RunState, op: HashBuild, build: JoinBuild, build_side: IntermediateResult
) -> HashIndex:
    """One sorted index over the build keys (staged, or gathered here).

    Single-attribute keys are side-independent: gather and sort now so the
    probe op only probes.  When the build side is the whole
    (un-reduced-since) relation, the lookup goes through both index caches —
    an index built by the transfer phase, or a prior query's frozen
    artifact, skips the gather and sort entirely (the gather thunk only runs
    on a full miss) — and a fresh index is published for reuse.
    """
    if len(op.attributes) == 1 and op.input.is_relation:
        relation = run.relations[op.input.alias]
        if build_side.num_rows == relation.num_rows:
            return run.relation_index(
                op.input.alias,
                op.attributes,
                relation,
                lambda: (
                    build.keys
                    if build.keys is not None
                    else _single_attribute_keys(run, op.attributes[0], build_side)
                ),
            )
    if build.keys is None:
        build.keys = _single_attribute_keys(run, op.attributes[0], build_side)
    return HashIndex(build.keys)


def hash_probe(run: RunState, op: HashProbe, record: OpStats) -> None:
    build = run.builds.pop(op.build_id)
    build_side = build.result
    probe = run.materialize(op.probe)
    record.rows_in = probe.num_rows
    governor = run.ex.governor
    if governor is not None:
        governor.touch(f"build:{op.build_id}")

    index = build.index
    if not op.attributes:
        if not run.ex.join.allow_cartesian_products:
            raise ExecutionError(
                "join plan contains a Cartesian product between "
                f"{sorted(probe.aliases)} and {sorted(build_side.aliases)}"
            )
        matches = JoinMatches(
            np.repeat(np.arange(probe.num_rows, dtype=np.int64), build_side.num_rows),
            np.tile(np.arange(build_side.num_rows, dtype=np.int64), probe.num_rows),
        )
        match_cost = 0.0
    else:
        if index is None:
            # Composite keys are densified jointly with the probe side.
            probe_keys, build_keys = _pair_keys(run, op.attributes, probe, build_side)
            index = HashIndex(build_keys)
        elif build.probe_keys is not None:
            probe_keys = build.probe_keys
        else:
            probe_keys = _single_attribute_keys(run, op.attributes[0], probe)
        if isinstance(index, PartitionedHashIndex):
            record.radix_bits = index.bits
            # Only the partitions the probe actually visits are touched, so
            # a spilled partition is charged a reload iff the join reads it.
            on_partition = None
            if governor is not None:
                on_partition = lambda p: governor.touch(f"partition:{op.build_id}:{p}")  # noqa: E731
            matches = index.match(
                probe_keys, run_tasks=run.ex.backend.map_tasks, on_partition=on_partition
            )
            # Partitioned probes search cache-resident segments: charge the
            # hash probe cost at partition granularity.
            searched_rows = max(build_side.num_rows >> index.bits, 1)
        else:
            matches = run.ex.backend.match(probe_keys, index)
            searched_rows = build_side.num_rows
        match_cost = hash_probe_cost(probe.num_rows, searched_rows) + float(build_side.num_rows)
    joined = probe.merge(build_side, matches.probe_indices, matches.build_indices)
    run.stats.join_steps.append(
        JoinStepStats(
            left_aliases=tuple(sorted(probe.aliases)),
            right_aliases=tuple(sorted(build_side.aliases)),
            probe_rows=probe.num_rows,
            build_rows=build_side.num_rows,
            output_rows=joined.num_rows,
            bloom_prefiltered_rows=build.bloom_eliminated,
        )
    )
    run.stats.abstract_cost += match_cost + float(joined.num_rows)
    run.results[Operand.intermediate(op.output_slot)] = apply_ready_predicates(run, joined)
    if governor is not None:
        governor.release(f"build:{op.build_id}")
        if isinstance(index, PartitionedHashIndex):
            for p in range(index.num_partitions):
                governor.release(f"partition:{op.build_id}:{p}")
    record.rows_out = joined.num_rows


# ---------------------------------------------------------------------------
# Join keys
# ---------------------------------------------------------------------------
def _representative_alias(attr_class, aliases: frozenset) -> str:
    for alias in sorted(aliases):
        if attr_class.touches(alias):
            return alias
    raise ExecutionError(
        f"attribute class {attr_class.name!r} has no member among aliases {sorted(aliases)}"
    )


def _single_attribute_keys(
    run: RunState, attribute: str, result: IntermediateResult
) -> np.ndarray:
    attr_class = run.ex.graph.attribute_classes[attribute]
    alias = _representative_alias(attr_class, result.aliases)
    values = result.column_values(run.relations, alias, attr_class.column_of(alias))
    return np.asarray(values).astype(np.int64, copy=False)


def _pair_keys(
    run: RunState,
    attributes: Tuple[str, ...],
    probe: IntermediateResult,
    build_side: IntermediateResult,
) -> Tuple[np.ndarray, np.ndarray]:
    probe_columns = []
    build_columns = []
    for attribute in attributes:
        attr_class = run.ex.graph.attribute_classes[attribute]
        probe_alias = _representative_alias(attr_class, probe.aliases)
        build_alias = _representative_alias(attr_class, build_side.aliases)
        probe_columns.append(
            probe.column_values(run.relations, probe_alias, attr_class.column_of(probe_alias))
        )
        build_columns.append(
            build_side.column_values(
                run.relations, build_alias, attr_class.column_of(build_alias)
            )
        )
    return combine_key_columns_pair(probe_columns, build_columns)


def _result_bloom_pass(
    run: RunState, attribute: str, result: IntermediateResult, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """An intermediate result's rows of a (cached) column hashing pass.

    When a full-column pass is available — some earlier step already
    paid for it, or the backing relation is unreduced and the result
    covers a sizable fraction of it (so the one-time full pass is near
    the work a direct hash would do anyway, and later steps reuse it) —
    the pass is gathered by the result's composed row ids instead of
    re-hashing.  Otherwise the already-gathered ``keys`` are hashed
    directly.
    """
    attr_class = run.ex.graph.attribute_classes[attribute]
    alias = _representative_alias(attr_class, result.aliases)
    relation = run.relations[alias]
    unreduced = relation.num_rows == relation.table.num_rows
    compute = unreduced and result.num_rows * 4 >= relation.table.num_rows
    full = full_bloom_pass(run, relation, attr_class.column_of(alias), compute=compute)
    if full is not None:
        positions = result.positions[alias]
        row_ids = positions if unreduced else relation.row_indices[positions]
        return full[0][row_ids], full[1][row_ids]
    run.record.hash_misses += 1
    hashes = hash_keys(keys)
    return hashes, key_patterns(hashes)


# ---------------------------------------------------------------------------
# Post-join predicates
# ---------------------------------------------------------------------------
def apply_ready_predicates(
    run: RunState, result: IntermediateResult, force_all: bool = False
) -> IntermediateResult:
    """Apply every pending post-join predicate whose relations are all joined.

    ``force_all`` (the final result): a predicate that is still not ready
    references relations the plan never joined, which is an error.
    """
    if not run.pending_predicates:
        return result
    still_pending = []
    for predicate in run.pending_predicates:
        if predicate.required_aliases() <= result.aliases:
            result = _apply_predicate(run, result, predicate)
        elif force_all:
            raise ExecutionError(
                "post-join predicate references relations missing from the final result: "
                f"{sorted(predicate.required_aliases() - result.aliases)}"
            )
        else:
            still_pending.append(predicate)
    run.pending_predicates = still_pending
    return result


def _apply_predicate(
    run: RunState, result: IntermediateResult, predicate: PostJoinPredicate
) -> IntermediateResult:
    if result.num_rows == 0:
        return result
    overall = np.zeros(result.num_rows, dtype=bool)
    for conjunct in predicate.disjuncts:
        conjunct_mask = np.ones(result.num_rows, dtype=bool)
        for term in conjunct:
            conjunct_mask &= result.evaluate_qualified_comparison(run.relations, term)
        overall |= conjunct_mask
    return result.take(np.nonzero(overall)[0])
