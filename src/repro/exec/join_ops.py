"""Join-phase handlers: join-scoped ``BloomBuild`` / ``BloomProbe``, ``HashBuild``, ``HashProbe``.

The join phase flows through late-materialized
:class:`~repro.exec.relation.IntermediateResult` operands; the ops of one
join hand their state to each other through the join's
:class:`~repro.exec.run_state.JoinBuild` record.

``HashBuild`` gathers a single-attribute build side's keys and builds their
:class:`~repro.exec.kernels.HashIndex` for the paired probe's row count, so
the index kind — a direct-address table on bounded integer keys, a sorted
index otherwise; ``[direct-unique]`` / ``[direct]`` / ``[sorted]`` in the op
trace — is a property of the rows the join actually sees, whatever the join
order, and never a plan shape.  ``HashProbe`` matches against whatever it
finds.  The build (rows, keys and index) is one governor reservation.
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
    bloom_probe_cost,
    combine_key_columns_pair,
    densify_key_columns_pair,
    hash_probe_cost,
)
from repro.exec.relation import IntermediateResult
from repro.exec.run_state import JoinBuild, RunState
from repro.exec.statistics import JoinStepStats, OpStats
from repro.exec.transfer_ops import full_bloom_pass
from repro.plan.physical import BloomBuild, BloomProbe, HashBuild, HashProbe, Operand
from repro.query import PostJoinPredicate


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
    probe_keys, build_keys = _pair_keys(
        run, op.attributes, probe, build_side, densify_key_columns_pair
    )
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
    if len(op.attributes) == 1 or build.keys is not None:
        # The probe side is final by now (the paired HashProbe is the next
        # op), so the index is built for the volume that will probe it.
        if build.probe_keys is not None:
            probe_rows = int(build.probe_keys.shape[0])
        else:
            probe_rows = run.materialize(run.probe_of[op.build_id]).num_rows
        build.index = _build_index(run, op, build, build_side, probe_rows)
        build.index.prepare_match(probe_rows)
        record.join_index = build.index.match_kind
    if run.ex.governor is not None:
        size = sum(int(arr.nbytes) for arr in build.result.positions.values())
        if build.index is not None:
            size += build.index.index_bytes()
        run.governed_reserve(f"build:{op.build_id}", size)


def _build_index(
    run: RunState,
    op: HashBuild,
    build: JoinBuild,
    build_side: IntermediateResult,
    probe_rows: int,
) -> HashIndex:
    """The index over the build keys (staged, or gathered here).

    Single-attribute keys are side-independent: gather and index now so the
    probe op only probes.  When the build side is the whole
    (un-reduced-since) relation, the lookup goes through both index caches —
    an index built by the transfer phase, or a prior query's frozen
    artifact, skips the gather and build entirely (the gather thunk only runs
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
                expected_probe_rows=probe_rows,
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
            # Composite keys are packed jointly with the probe side.
            probe_keys, build_keys = _pair_keys(
                run, op.attributes, probe, build_side, combine_key_columns_pair
            )
            index = HashIndex(build_keys)
        elif build.probe_keys is not None:
            probe_keys = build.probe_keys
        else:
            probe_keys = _single_attribute_keys(run, op.attributes[0], probe)
        matches = run.ex.backend.match(probe_keys, index)
        record.join_index = index.match_kind
        match_cost = hash_probe_cost(probe.num_rows, build_side.num_rows) + float(
            build_side.num_rows
        )
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
    combine,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides' join keys; ``combine`` joins composite ones — densified
    when a Bloom filter will hash them, packed for the exact index alone."""
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
    return combine(probe_columns, build_columns)


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
        row_ids = result.positions[alias]
        if relation.row_indices is not None:  # identity: positions are row ids
            row_ids = relation.row_indices.take(row_ids)
        return full[0].take(row_ids), full[1].take(row_ids)
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
