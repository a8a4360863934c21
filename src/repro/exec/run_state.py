"""The state of one :meth:`PipelineExecutor.run <repro.exec.pipeline.PipelineExecutor.run>` call.

The *step* is the unit of the executor's state as it is of the plan's: one
:class:`TransferStepState` per transfer step id, one :class:`JoinBuild` per
build id.  The run loop creates a :class:`RunState`, passes it to every
handler and drops it; nothing per-run lives on the executor.  The run's
shared resources sit behind the same object: cross-query artifact keys, the
index lookup through both caches, and what the run charges to the memory
governor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.bloom.bloom_filter import BloomFilter
from repro.errors import CatalogError, ExecutionError, MemoryExhausted
from repro.exec.adaptive import AdaptiveTransferController
from repro.exec.kernels import HashIndex
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.exec.statistics import ExecutionStats, OpStats
from repro.plan.physical import HashProbe, Operand, PhysicalPlan
from repro.query import PostJoinPredicate
from repro.storage.artifacts import KIND_HASH_INDEX, ArtifactKey

if TYPE_CHECKING:
    from repro.exec.pipeline import BaseFilter, PipelineExecutor


@dataclass
class TransferStepState:
    """What a transfer ``BloomBuild`` leaves for the ``BloomProbe`` of its step.

    Either the step was skipped (§4.3 pruning, or — ``adaptive_skipped`` —
    the controller), or the build side is staged: a Bloom filter (``bloom``)
    or, when the exact-bitmap downgrade fired, a prepared
    :class:`~repro.exec.kernels.HashIndex` whose bitmap membership table
    replaces the filter entirely (``exact_index``; no false positives).

    The probe side is ``target_column`` — the probe op gathers that column
    of ``op.target`` over the immutable base table by the relation's current
    row ids, materializing nothing in between — except for composite keys,
    which are packed jointly with the build side and so staged eagerly
    as ``target_keys``.
    """

    skipped: bool = False
    adaptive_skipped: bool = False
    bloom: Optional[BloomFilter] = None
    exact_index: Optional[HashIndex] = None
    target_keys: Optional[np.ndarray] = None
    target_column: Optional[str] = None


@dataclass
class JoinBuild:
    """What the ops of one join (one build id) hand to each other.

    A join-scoped ``BloomBuild`` stages the pair keys of both sides and the
    SIP filter (``bloom``, with ``probe_pass`` the probe side's cached
    hashing pass); its ``BloomProbe`` reduces ``probe_keys`` and counts
    ``bloom_eliminated``.  ``HashBuild`` sets ``result`` (the materialized
    build side) and ``index``, built for the probe side's row count;
    ``index`` stays ``None`` for composite keys without a prefilter (packed
    jointly with the probe side, in ``HashProbe``) and for Cartesian
    products.
    """

    result: Optional[IntermediateResult] = None
    index: Optional[HashIndex] = None
    keys: Optional[np.ndarray] = None
    probe_keys: Optional[np.ndarray] = None
    bloom: Optional[BloomFilter] = None
    probe_pass: Optional[Tuple[np.ndarray, np.ndarray]] = None
    bloom_eliminated: int = 0


class RunState:
    """Everything one plan execution owns, and the resources it charges.

    ``ex`` is the :class:`~repro.exec.pipeline.PipelineExecutor` — the
    query's configuration (graph, options, backend, governor, caches), read
    and never written here.
    """

    def __init__(
        self,
        ex: "PipelineExecutor",
        plan: PhysicalPlan,
        stats: ExecutionStats,
        filters: Optional[Mapping[str, "BaseFilter"]] = None,
    ) -> None:
        self.ex = ex
        self.stats = stats
        self.filters = filters or {}
        #: The open op's record; the run loop points it at each op in turn.
        self.record = OpStats(index=-1, kind="run")
        self.relations: Dict[str, BoundRelation] = {}
        #: What each operand currently names: a relation's rows (from its
        #: first use in the join phase) or a ``HashProbe``'s output slot.
        self.results: Dict[Operand, IntermediateResult] = {}
        self.steps: Dict[int, TransferStepState] = {}
        self.builds: Dict[int, JoinBuild] = {}
        #: The probe operand of each build id (its ``HashBuild`` sizes the
        #: index for the rows that will probe it).
        self.probe_of: Dict[int, Operand] = {
            op.build_id: op.probe for op in plan if isinstance(op, HashProbe)
        }
        self.index_cache: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, HashIndex]] = {}
        #: Relations some predicate or transfer step has reduced (§4.3
        #: pruning asks); computed on first use.
        self.filtered: Optional[set[str]] = None
        self.pending_predicates: List[PostJoinPredicate] = list(ex.query.post_join_predicates)
        self.aggregates: Optional[Dict[str, float]] = None
        # Artifact eligibility: a relation's artifacts are keyed by its
        # *base* state (scan + pushed-down filter, before any transfer
        # reduction), identified by the version Scan / FilterPush record.
        self.base_versions: Dict[str, int] = {}
        #: Governor reservations charged once per run: touched artifacts and
        #: published arena columns, by reservation key.
        self.charged: set[str] = set()
        #: Yield-driven pass skipping, when the executor was asked for it.
        self.adaptive: Optional[AdaptiveTransferController] = (
            AdaptiveTransferController(plan) if ex.adaptive_transfer else None
        )

    # -- operands -------------------------------------------------------
    def materialize(self, operand: Operand) -> IntermediateResult:
        """The intermediate result an operand names (a relation's, on first use)."""
        result = self.results.get(operand)
        if result is None:
            if not operand.is_relation:
                raise ExecutionError(f"pipeline slot ${operand.slot} was never produced")
            if operand.alias not in self.relations:
                raise ExecutionError(f"plan references unknown relation {operand.alias!r}")
            result = self.results[operand] = IntermediateResult.from_relation(
                self.relations[operand.alias]
            )
        return result

    # -- artifact keys --------------------------------------------------
    def artifact_key(
        self, alias: str, column: str, kind: str, param: str = ""
    ) -> Optional[ArtifactKey]:
        """Cross-query cache key for an artifact over ``alias``'s base state.

        ``None`` (no caching) unless the artifact cache is configured, the
        engine supplied this alias's catalog version and filter fingerprint,
        and the relation is still in its base (scan + pushed-down filter)
        state — an artifact over a transfer-reduced relation would depend on
        this query's other predicates and must not be shared.
        """
        if self.ex.artifact_cache is None:
            return None
        relation = self.relations.get(alias)
        fingerprint = self.ex.fingerprints.get(alias)
        if relation is None or fingerprint is None:
            return None
        table_version = self.snapshot_version(alias, relation.table.name)
        if table_version is None:
            return None
        if relation.version != self.base_versions.get(alias, -1):
            return None
        return ArtifactKey(
            table=relation.table.name,
            table_version=table_version,
            column=column,
            fingerprint=fingerprint,
            kind=kind,
            param=param,
            encoding=self.encoding_token(relation.table, column),
        )

    def encoding_token(self, table, column: str) -> str:
        """The column's encoding identity for cache keys.

        ``"raw"`` whenever block encodings are off — every key is then
        byte-identical to the pre-encoding ones, so artifacts persist
        across the flag being toggled off.  With encodings on, the token
        (e.g. ``"pack:u16:b0"``) keeps artifacts recorded over an encoded
        representation from aliasing raw ones at the same catalog version.
        """
        if not self.ex.encodings or self.ex.catalog is None:
            return "raw"
        store = getattr(self.ex.catalog, "encodings", None)
        if store is None:
            return "raw"
        return store.token(table, column)

    def snapshot_version(self, alias: str, table_name: str) -> Optional[int]:
        """The engine's table-version snapshot — only while it is still live.

        Guards the race between the snapshot (taken at ``Database.execute``
        start) and a concurrent table replace: once the live catalog version
        moves past the snapshot, this execution may be reading the *new*
        table's data, so caching anything under the snapshot key could
        poison the cache.  Artifact use is simply disabled for that alias.
        """
        version = self.ex.table_versions.get(alias)
        if version is None:
            return None
        if self.ex.catalog is not None:
            try:
                if self.ex.catalog.version(table_name) != version:
                    return None
            except CatalogError:
                return None
        return version

    def relation_index(
        self,
        alias: str,
        attributes: Tuple[str, ...],
        relation: BoundRelation,
        gather_keys: Callable[[], np.ndarray],
        expected_probe_rows: int = 0,
    ) -> HashIndex:
        """The index over a relation's single-attribute keys, through both caches.

        Single-attribute keys are side-independent, so their index is
        cached per ``(alias, attributes)`` and reused until the relation is
        reduced again.  Lookup order: the query-lifetime index cache (keyed
        by relation version — the forward/backward pass and join-phase
        reuse), then the cross-query artifact cache (keyed by table version
        + filter fingerprint; only consulted while the relation is in its
        base state).  ``gather_keys`` runs only on a full miss.  A freshly
        built index headed for the artifact cache is frozen first so later
        queries — possibly on morsel worker threads — only ever read it.
        """
        cache_key = (alias, attributes)
        cached = self.index_cache.get(cache_key)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        # Artifacts are keyed by the physical column, not the query-local
        # attribute-class name, so different queries share them.
        column = self.ex.graph.attribute_classes[attributes[0]].column_of(alias)
        artifact_key = self.artifact_key(alias, column, kind=KIND_HASH_INDEX)
        index: Optional[HashIndex] = None
        if artifact_key is not None:
            artifact = self.ex.artifact_cache.get(artifact_key)
            if artifact is not None:
                self.record.artifact_hits += 1
                self.charge_artifact(artifact_key, artifact.index_bytes())
                index = artifact
            else:
                self.record.artifact_misses += 1
        if index is None:
            index = HashIndex(gather_keys())
            if artifact_key is not None:
                probe_rows = expected_probe_rows or index.num_keys
                index.prepare(probe_rows)
                index.prepare_match(probe_rows)
                self.ex.artifact_cache.put(artifact_key, index, index.index_bytes())
                self.charge_artifact(artifact_key, index.index_bytes())
        self.index_cache[cache_key] = (relation.version, index)
        return index

    # -- governor charging ----------------------------------------------
    def governed_reserve(self, key: str, size_bytes: int, evictable: bool = True) -> None:
        """Reserve through the governor with the spill-then-retry rung.

        A failed reservation (:class:`~repro.errors.MemoryExhausted`, genuine
        or injected) no longer aborts the op: every evictable reservation is
        synchronously spilled and the reservation retried once — recorded as
        the ``governor:spill-retry`` degradation.  Only a retry failure
        propagates.
        """
        governor = self.ex.governor
        if governor is None:
            return
        try:
            governor.reserve(key, size_bytes, evictable=evictable)
        except MemoryExhausted:
            governor.spill_evictables()
            governor.reserve(key, size_bytes, evictable=evictable, inject=False)
            self.record.degraded = self.record.degraded or "governor:spill-retry"
            self.stats.record_degradation("governor:spill-retry")
            if self.ex.tracer is not None:
                self.ex.tracer.event("governor:spill-retry", key=key)

    def charge_artifact(self, key: ArtifactKey, size_bytes: int) -> None:
        """Account a touched artifact's residency against the run's governor."""
        if self.ex.governor is None:
            return
        reservation = f"artifact:{key.kind}:{key.table}:{key.column}:{key.fingerprint[:12]}"
        if reservation not in self.charged:
            self.governed_reserve(reservation, size_bytes, evictable=False)
            self.charged.add(reservation)

    def charge_shm(self, ref) -> None:
        """Account a published arena column, once per run, to the op that first used it."""
        reservation = f"shm:{ref.name}"
        if reservation not in self.charged:
            self.charged.add(reservation)
            self.record.shm_bytes += ref.nbytes
            self.governed_reserve(reservation, ref.nbytes, evictable=False)
