"""Transfer-phase handlers: ``BloomBuild`` / ``BloomProbe`` / ``SemiJoinReduce``.

A transfer step reduces ``op.target`` (a bound relation, in place) by the
join keys of ``op.source``.  In the Bloom modes the step's first op decides
whether it runs at all (§4.3 pruning) and stages
either a Bloom filter or — on a dense integer key domain — an exact bitmap
index in the step's :class:`~repro.exec.run_state.TransferStepState`; the
probe that follows consumes it.  Exact (Yannakakis) steps are one op.

Every Bloom insert and probe replays a cached hashing pass over the key
column instead of hashing gathered keys (:func:`bloom_pass_for_relation`,
:func:`full_bloom_pass`): once per run through the passes the
:class:`~repro.exec.run_state.RunState` keeps, once per table version
through the artifact cache.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bloom.bloom_filter import BloomFilter, hash_keys, key_patterns
from repro.errors import ExecutionError
from repro.exec.kernels import (
    HashIndex,
    bloom_probe_cost,
    combine_key_columns_pair,
    densify_key_columns_pair,
)
from repro.exec.relation import BoundRelation
from repro.exec.run_state import BloomPass, RunState, TransferStepState
from repro.exec.statistics import OpStats, TransferStepStats
from repro.plan.physical import BloomBuild, BloomProbe, SemiJoinReduce
from repro.storage.artifacts import (
    FINGERPRINT_COLUMN,
    KIND_BLOOM,
    KIND_BLOOM_PASS,
    ArtifactKey,
)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------
def bloom_build(run: RunState, op: BloomBuild, record: OpStats) -> None:
    source = run.relations[op.source.alias]
    target = run.relations[op.target.alias]
    record.rows_in = record.rows_out = source.num_rows
    if _skip_step(run, op, record, target):
        run.steps[op.step_id] = TransferStepState(skipped=True)
        return
    step = TransferStepState()
    if len(op.attributes) == 1:
        attr_class = run.ex.graph.attribute_classes[op.attributes[0]]
        source_column = attr_class.column_of(op.source.alias)
        # Late materialization: the probe op gathers over the immutable
        # base column by the target's row ids; nothing is staged for the
        # probe side here.
        step.target_column = attr_class.column_of(op.target.alias)
        step.exact_index = _exact_bitmap_index(run, op, source, source_column, target)
        if step.exact_index is None:
            step.bloom = _transfer_bloom(run, op, source, source_column)
        else:
            record.downgraded_exact = True
    else:
        # Composite keys are densified jointly with the probe side, so
        # neither hashing pass nor gather can be cached or deferred.
        source_keys, step.target_keys = _step_keys(
            run, op, source, target, densify_key_columns_pair
        )
        step.bloom = BloomFilter(expected_keys=source.num_rows, fpr=run.ex.transfer.fpr)
        step.bloom.insert(source_keys)
    run.steps[op.step_id] = step


def bloom_probe(run: RunState, op: BloomProbe, record: OpStats) -> None:
    target = run.relations[op.target.alias]
    record.rows_in = record.rows_out = target.num_rows
    # The step's build ran (or skipped) immediately before this op.
    step = run.steps.pop(op.step_id)
    if step.skipped:
        record.skipped = True
        return
    if step.exact_index is not None:
        # Exact-bitmap downgrade: one in-range test + table gather per
        # probe key, and no false positives downstream.
        record.downgraded_exact = True
        record.selvec_rows += target.num_rows
        probe_keys = target.key_values(step.target_column)
        _exact_semi_join(
            run, op, record, target, step.exact_index, probe_keys, step.exact_index.index_bytes()
        )
        return
    bloom = step.bloom
    if step.target_keys is not None:
        mask = run.ex.backend.probe_mask(step.target_keys, bloom.probe)
    else:
        record.selvec_rows += target.num_rows
        probe_pass = bloom_pass_for_relation(run, target, step.target_column)
        mask = run.ex.backend.probe_mask(
            probe_pass, lambda hp: bloom.probe(hashes=hp[0], patterns=hp[1])
        )
    _reduce_target(run, op, record, target, mask, bloom.size_bytes)


def semi_join_reduce(run: RunState, op: SemiJoinReduce, record: OpStats) -> None:
    source = run.relations[op.source.alias]
    target = run.relations[op.target.alias]
    record.rows_in = record.rows_out = target.num_rows
    if _skip_step(run, op, record, target):
        return
    if len(op.attributes) == 1:
        # Single-attribute keys are side-independent: resolve the target
        # side and check the index caches before gathering source keys —
        # a hit (forward + backward pass probing the same source, or a
        # prior query's frozen artifact) skips the source-side gather
        # and sort entirely.
        attr_class = run.ex.graph.attribute_classes[op.attributes[0]]
        target_keys = target.key_values(attr_class.column_of(op.target.alias))
        source_column = attr_class.column_of(op.source.alias)
        index = _source_index(run, op, source, source_column, len(target_keys))
    else:
        source_keys, target_keys = _step_keys(run, op, source, target, combine_key_columns_pair)
        index = HashIndex(source_keys)
    _exact_semi_join(run, op, record, target, index, target_keys, int(index.keys.nbytes))


# ---------------------------------------------------------------------------
# The two halves every executed step shares
# ---------------------------------------------------------------------------
def _exact_semi_join(
    run: RunState,
    op,
    record: OpStats,
    target: BoundRelation,
    index: HashIndex,
    target_keys,
    filter_bytes: int,
) -> None:
    """Reduce ``target`` to the rows whose key is in ``index`` (no false positives)."""
    probe_rows = len(target_keys)
    mask = run.ex.backend.probe_mask(
        target_keys, index.contains, prepare=lambda: index.prepare(probe_rows)
    )
    _reduce_target(run, op, record, target, mask, filter_bytes)


def _reduce_target(
    run: RunState,
    op,
    record: OpStats,
    target: BoundRelation,
    mask: np.ndarray,
    filter_bytes: int,
) -> None:
    """Apply a step's probe mask: keep the surviving rows, record the step."""
    rows_before = target.num_rows
    target.keep(mask)
    rows_after = record.rows_out = target.num_rows
    stats = run.stats
    stats.transfer_steps.append(
        TransferStepStats(
            source=op.source.alias,
            target=op.target.alias,
            pass_=op.pass_,
            rows_before=rows_before,
            rows_after=rows_after,
            filter_bytes=filter_bytes,
            # The source is untouched since the step's first op built from it.
            build_rows=run.relations[op.source.alias].num_rows,
            downgraded_exact=record.downgraded_exact,
        )
    )
    stats.bloom_bytes += filter_bytes
    stats.abstract_cost += bloom_probe_cost(rows_before, max(filter_bytes, 1))
    if rows_after < rows_before:
        _filtered(run).add(op.target.alias)


# ---------------------------------------------------------------------------
# Skipping
# ---------------------------------------------------------------------------
def _skip_step(run: RunState, op, record: OpStats, target: BoundRelation) -> bool:
    """Skip a step at its first op when §4.3 pruning removes it."""
    pruned = (
        run.ex.transfer.prune_trivial_semijoins
        and op.prunable
        and op.source.alias not in _filtered(run)
    )
    if not pruned:
        return False
    record.skipped = True
    run.stats.transfer_steps.append(
        TransferStepStats(
            source=op.source.alias,
            target=op.target.alias,
            pass_=op.pass_,
            rows_before=target.num_rows,
            rows_after=target.num_rows,
            skipped=True,
        )
    )
    return True


def _filtered(run: RunState) -> set[str]:
    """Relations reduced so far: by their base predicate (§4.3), then by steps."""
    if run.filtered is None:
        run.filtered = {
            ref.alias
            for ref in run.ex.query.relations
            if ref.filter is not None
            and ref.alias in run.relations
            and run.relations[ref.alias].num_rows < run.relations[ref.alias].table.num_rows
        }
    return run.filtered


# ---------------------------------------------------------------------------
# Build sides
# ---------------------------------------------------------------------------
def _transfer_bloom(
    run: RunState, op: BloomBuild, source: BoundRelation, column: str
) -> BloomFilter:
    """Build (or fetch from the artifact cache) one transfer-phase filter."""
    fpr = run.ex.transfer.fpr

    def build() -> BloomFilter:
        bloom = BloomFilter(expected_keys=source.num_rows, fpr=fpr)
        hashes, patterns = bloom_pass_for_relation(run, source, column)
        bloom.insert(hashes=hashes, patterns=patterns)
        return bloom

    return run.through_artifacts(
        run.artifact_key(op.source.alias, column, kind=KIND_BLOOM, param=f"fpr={fpr}"),
        build,
        lambda bloom: bloom.size_bytes,
    )


def _exact_bitmap_index(
    run: RunState,
    op: BloomBuild,
    source: BoundRelation,
    column: str,
    target: BoundRelation,
) -> Optional[HashIndex]:
    """Exact-bitmap downgrade: a prepared bitmap index, or None to keep Bloom.

    When the build side's observed key domain is dense enough that a
    boolean membership table costs no more than the probe work it saves
    (the same economics as :meth:`HashIndex.table_worthwhile`), the step is
    executed as an exact bitmap semi-join: probes become one in-range
    test plus one table gather, and — unlike a Bloom filter — zero false
    positives survive into the downstream passes and the join phase.
    """
    if source.num_rows == 0:
        return None
    probe_rows = target.num_rows
    index = _source_index(run, op, source, column, probe_rows)
    if not index.table_worthwhile(probe_rows):
        return None
    index.prepare(probe_rows)
    return index if index.has_bitmap else None


def _source_index(
    run: RunState, op, source: BoundRelation, column: str, probe_rows: int
) -> HashIndex:
    """The (cached) index over a single-attribute step's source keys."""
    return run.relation_index(
        op.source.alias,
        op.attributes,
        source,
        lambda: source.key_values(column),
        expected_probe_rows=probe_rows,
    )


def _step_keys(run: RunState, op, source: BoundRelation, target: BoundRelation, combine):
    """Resolve a transfer step's attribute classes to concrete key arrays.

    ``combine`` joins composite keys: densified for a Bloom filter (what it
    hashes decides its false positives), packed for an exact index.
    """
    source_columns = []
    target_columns = []
    for attribute in op.attributes:
        attr_class = run.ex.graph.attribute_classes[attribute]
        source_columns.append(source.key_values(attr_class.column_of(op.source.alias)))
        target_columns.append(target.key_values(attr_class.column_of(op.target.alias)))
    if not source_columns:
        raise ExecutionError(f"transfer op {op.describe()} has no join attributes")
    return combine(source_columns, target_columns)


# ---------------------------------------------------------------------------
# Bloom-pass reuse
# ---------------------------------------------------------------------------
def bloom_pass_for_relation(run: RunState, relation: BoundRelation, column: str) -> BloomPass:
    """The relation's surviving rows of a (cached) column hashing pass.

    Strategy, cheapest first: an unreduced relation computes/reuses the
    zero-gather full-column pass; a reduced one reuses the pass cached
    for its current version (a build and probe over the same relation
    state share one pass); failing that it gathers from an
    already-paid full-column pass; and only as a last resort hashes its
    gathered keys — caching the result for the next step over the same
    state.  Every branch is bit-identical to hashing the gathered keys
    directly.
    """
    table = relation.table
    selection = relation.row_indices
    if selection is None or selection.shape[0] == table.num_rows:
        # Identity: the relation's keys are the whole column.
        return full_bloom_pass(run, relation, column, compute=True)
    cache_key = (relation.alias, column)
    cached = run.current(run.selection_passes, cache_key, relation)
    if cached is not None:
        run.record.hash_hits += 1
        return cached
    # With the cross-query artifact cache on, a selection covering a
    # sizable fraction of the column promotes to the full-column pass:
    # one-time extra hashing that every later query replays for free.
    promote = (
        run.ex.artifact_cache is not None
        and relation.alias in run.ex.table_versions
        and relation.num_rows * 4 >= table.num_rows
    )
    full = full_bloom_pass(run, relation, column, compute=promote)
    if full is not None:
        result = (full[0].take(selection), full[1].take(selection))
    else:
        run.record.hash_misses += 1
        hashes = hash_keys(relation.key_values(column))
        result = (hashes, key_patterns(hashes))
    run.selection_passes[cache_key] = (relation.version, result)
    return result


def full_bloom_pass(
    run: RunState, relation: BoundRelation, column: str, compute: bool
) -> Optional[BloomPass]:
    """A full-column hashing pass, through the run's passes and the artifact cache.

    The pass depends only on the immutable column data, so — unlike
    Bloom filters and hash indexes — its artifact is keyed purely by
    table version, never by a filter fingerprint.  With ``compute=False``
    only already-paid passes (this run's or a prior query's artifact)
    are returned.
    """
    data = relation.key_data(column)
    entry = run.full_passes.get(id(data))
    if entry is not None:
        run.record.hash_hits += 1
        return entry[1]
    table = relation.table
    artifact_key = None
    if run.ex.artifact_cache is not None:
        table_version = run.snapshot_version(relation.alias, table.name)
        if table_version is not None:
            artifact_key = ArtifactKey(
                table=table.name,
                table_version=table_version,
                column=column,
                fingerprint=FINGERPRINT_COLUMN,
                kind=KIND_BLOOM_PASS,
            )

    def build() -> Optional[BloomPass]:
        if not compute:
            return None
        run.record.hash_misses += 1
        hashes = hash_keys(data)
        return hashes, key_patterns(hashes)

    full = run.through_artifacts(
        artifact_key, build, lambda bloom_pass: int(bloom_pass[0].nbytes + bloom_pass[1].nbytes)
    )
    if full is not None:
        run.full_passes[id(data)] = (data, full)
    return full
