"""Transfer-phase handlers: ``BloomBuild`` / ``BloomProbe`` / ``SemiJoinReduce``.

A transfer step reduces ``op.target`` (a bound relation, in place) by the
join keys of ``op.source``.  One rule, :func:`step_filter`, picks every
step's filter, in every mode:

1. §4.3 pruning first: a pruned step does nothing;
2. an empty source keeps no target row: no index, no filter, nothing
   gathered or hashed;
3. a composite-key step runs exact, over ``combine_key_columns_pair`` codes;
4. a single-attribute step runs exact when
   :meth:`~repro.exec.kernels.HashIndex.table_worthwhile` accepts its
   source key domain, or when the mode is Yannakakis;
5. only a PT/RPT single-attribute step over a sparse domain keeps a Bloom
   filter.

In the Bloom modes the step's ``BloomBuild`` applies the rule and stages
its :class:`~repro.exec.run_state.TransferStepState`, and the
``BloomProbe`` that follows applies it; a Yannakakis step does both in one
``SemiJoinReduce``.  Both go through :func:`_apply_step`.

Every Bloom insert and probe replays a cached hashing pass over the key
column instead of hashing gathered keys (:func:`bloom_pass_for_relation`,
:func:`full_bloom_pass`): once per run through the passes the
:class:`~repro.exec.run_state.RunState` keeps, once per table version
through the artifact cache.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.bloom.bloom_filter import BloomFilter, hash_keys, key_patterns
from repro.exec.kernels import HashIndex, bloom_probe_cost, combine_key_columns_pair
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

TransferOp = Union[BloomBuild, SemiJoinReduce]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------
def bloom_build(run: RunState, op: BloomBuild, record: OpStats) -> None:
    source = run.relations[op.source.alias]
    record.rows_in = record.rows_out = source.num_rows
    step = run.steps[op.step_id] = step_filter(run, op, record)
    record.downgraded_exact = step.index is not None


def bloom_probe(run: RunState, op: BloomProbe, record: OpStats) -> None:
    target = run.relations[op.target.alias]
    record.rows_in = record.rows_out = target.num_rows
    # The step's build ran (or skipped) immediately before this op.
    step = run.steps.pop(op.step_id)
    record.downgraded_exact = step.index is not None
    if step.target_column is not None:
        record.selvec_rows += target.num_rows
    _apply_step(run, op, record, step)


def semi_join_reduce(run: RunState, op: SemiJoinReduce, record: OpStats) -> None:
    target = run.relations[op.target.alias]
    record.rows_in = record.rows_out = target.num_rows
    _apply_step(run, op, record, step_filter(run, op, record))


# ---------------------------------------------------------------------------
# The rule, and the one applier
# ---------------------------------------------------------------------------
def step_filter(run: RunState, op: TransferOp, record: OpStats) -> TransferStepState:
    """Pick a transfer step's filter by the module's one rule.

    Exact steps stage a prepared :class:`~repro.exec.kernels.HashIndex`
    over the source keys; a Bloom step stages its filter; a pruned step is
    ``skipped``; an empty source stages neither index nor filter.
    """
    source = run.relations[op.source.alias]
    target = run.relations[op.target.alias]
    if _skip_step(run, op, record, target):
        return TransferStepState(skipped=True)
    if source.num_rows == 0:
        return TransferStepState()
    if len(op.attributes) > 1:
        source_keys, target_keys = _composite_keys(run, op, source, target)
        return TransferStepState(index=HashIndex(source_keys), target_keys=target_keys)
    attr_class = run.ex.graph.attribute_classes[op.attributes[0]]
    source_column = attr_class.column_of(op.source.alias)
    # Late materialization: the probe gathers the target column over the
    # immutable base table by the relation's row ids when the step applies.
    target_column = attr_class.column_of(op.target.alias)
    probe_rows = target.num_rows
    index = _source_index(run, op, source, source_column, probe_rows)
    if isinstance(op, SemiJoinReduce) or _bitmap_ready(index, probe_rows):
        return TransferStepState(index=index, target_column=target_column)
    bloom = _transfer_bloom(run, op, source, source_column)
    return TransferStepState(bloom=bloom, target_column=target_column)


def _apply_step(run: RunState, op, record: OpStats, step: TransferStepState) -> None:
    """Reduce ``op.target`` by a staged step — exact, Bloom, or (empty
    source) to nothing — and record the step."""
    if step.skipped:
        record.skipped = True
        return
    target = run.relations[op.target.alias]
    backend = run.ex.backend
    if step.index is not None:
        index = step.index
        keys = step.target_keys
        if keys is None:
            keys = target.key_values(step.target_column)
        probe_rows = len(keys)
        mask = backend.probe_mask(keys, index.contains, prepare=lambda: index.prepare(probe_rows))
        # The source keys, whatever structures a cached index has built since.
        filter_bytes = int(index.keys.nbytes)
    elif step.bloom is not None:
        bloom = step.bloom
        probe_pass = bloom_pass_for_relation(run, target, step.target_column)
        mask = backend.probe_mask(probe_pass, lambda hp: bloom.probe(hashes=hp[0], patterns=hp[1]))
        filter_bytes = bloom.size_bytes
    else:
        mask = np.zeros(target.num_rows, dtype=bool)
        filter_bytes = 0
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


def _bitmap_ready(index: HashIndex, probe_rows: int) -> bool:
    """True when ``index`` holds a bitmap membership table for ``probe_rows``
    probes: :meth:`HashIndex.table_worthwhile` accepts the key domain, so a
    probe is one in-range test plus one table gather."""
    if not index.table_worthwhile(probe_rows):
        return False
    index.prepare(probe_rows)
    return index.has_bitmap


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


def _composite_keys(run: RunState, op, source: BoundRelation, target: BoundRelation):
    """A composite-key step's source and target keys, packed consistently
    across both sides by :func:`~repro.exec.kernels.combine_key_columns_pair`."""
    source_columns = []
    target_columns = []
    for attribute in op.attributes:
        attr_class = run.ex.graph.attribute_classes[attribute]
        source_columns.append(source.key_values(attr_class.column_of(op.source.alias)))
        target_columns.append(target.key_values(attr_class.column_of(op.target.alias)))
    return combine_key_columns_pair(source_columns, target_columns)


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
