"""The state of one :meth:`PipelineExecutor.run <repro.exec.pipeline.PipelineExecutor.run>` call.

The *step* is the unit of the executor's state as it is of the plan's: one
:class:`TransferStepState` per transfer step id, one :class:`JoinBuild` per
build id.  The run loop creates a :class:`RunState`, passes it to every
handler and drops it; nothing per-run lives on the executor.  The run's
shared resources sit behind the same object: cross-query artifact keys, the
one round trip through the artifact cache, and the per-run caches of hash
indexes and Bloom hashing passes.  A per-run entry over a relation's
selection is served only while ``relation.version`` still matches the
version it was built at (:meth:`RunState.current`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.bloom.bloom_filter import BloomFilter
from repro.errors import CatalogError, ExecutionError
from repro.exec.kernels import HashIndex
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.exec.statistics import ExecutionStats, OpStats
from repro.plan.physical import HashProbe, Operand, PhysicalPlan
from repro.query import PostJoinPredicate
from repro.storage.artifacts import KIND_HASH_INDEX, ArtifactKey

if TYPE_CHECKING:
    from repro.exec.pipeline import PipelineExecutor

#: A Bloom hashing pass over some keys: (splitmix64 hashes, block bit-patterns).
BloomPass = Tuple[np.ndarray, np.ndarray]

T = TypeVar("T")


@dataclass
class TransferStepState:
    """A transfer step's filter, as :func:`~repro.exec.transfer_ops.step_filter` picked it.

    Exactly one of: ``skipped`` (§4.3 pruning); an exact ``index`` over the
    source keys (no false positives); a Bloom ``bloom`` (a PT/RPT
    single-attribute step over a sparse key domain); or neither, when the
    source is empty and the target keeps no row.

    The probe side is ``target_column`` for a single-attribute step — the
    probe gathers that column of ``op.target`` over the immutable base table
    by the relation's current row ids, materializing nothing in between —
    and ``target_keys`` for a composite one, packed jointly with the source
    keys when the step is staged.
    """

    skipped: bool = False
    bloom: Optional[BloomFilter] = None
    index: Optional[HashIndex] = None
    target_keys: Optional[np.ndarray] = None
    target_column: Optional[str] = None


@dataclass
class JoinBuild:
    """What the ops of one join (one build id) hand to each other.

    A join-scoped ``BloomBuild`` stages the pair keys of both sides and the
    SIP filter (``bloom``, with ``probe_pass`` the probe side's cached
    hashing pass); its ``BloomProbe`` reduces ``probe_keys`` and counts
    ``bloom_eliminated``.  ``HashBuild`` sets ``result`` (the materialized
    build side) and ``index``, built for the probe side's row count (and
    stages ``probe_keys`` itself when it prefilters the build side);
    ``index`` stays ``None`` for composite keys without a prefilter (packed
    jointly with the probe side, in ``HashProbe``) and for Cartesian
    products.
    """

    result: Optional[IntermediateResult] = None
    index: Optional[HashIndex] = None
    keys: Optional[np.ndarray] = None
    probe_keys: Optional[np.ndarray] = None
    bloom: Optional[BloomFilter] = None
    probe_pass: Optional[BloomPass] = None
    bloom_eliminated: int = 0


class RunState:
    """Everything one plan execution owns.

    ``ex`` is the :class:`~repro.exec.pipeline.PipelineExecutor` — the
    query's configuration (graph, options, backend, caches), read
    and never written here.
    """

    def __init__(
        self,
        ex: "PipelineExecutor",
        plan: PhysicalPlan,
        stats: ExecutionStats,
        masks: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        self.ex = ex
        self.stats = stats
        self.masks = masks or {}
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
        #: Per-run structures over a relation's current rows, each with the
        #: relation version it was built at: hash indexes by
        #: ``(alias, attributes)``, Bloom hashing passes by ``(alias, column)``.
        self.index_cache: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, HashIndex]] = {}
        self.selection_passes: Dict[Tuple[str, str], Tuple[int, BloomPass]] = {}
        #: Bloom hashing passes over whole base columns, by ``id`` of the
        #: column buffer.  An entry holds its buffer, so the id cannot be
        #: reused while the run lasts; self-join aliases, and tables that
        #: share one buffer, share one pass.
        self.full_passes: Dict[int, Tuple[np.ndarray, BloomPass]] = {}
        #: Relations some predicate or transfer step has reduced (§4.3
        #: pruning asks); computed on first use.
        self.filtered: Optional[set[str]] = None
        self.pending_predicates: List[PostJoinPredicate] = list(ex.query.post_join_predicates)
        self.aggregates: Optional[Dict[str, float]] = None
        # Artifact eligibility: a relation's artifacts are keyed by its
        # *base* state (scan + pushed-down filter, before any transfer
        # reduction), identified by the version Scan / FilterPush record.
        self.base_versions: Dict[str, int] = {}

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
        )

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

    @staticmethod
    def current(cache: Dict[Any, Tuple[int, T]], key: Any, relation: BoundRelation) -> Optional[T]:
        """``cache[key]`` if it was built at ``relation``'s current version."""
        entry = cache.get(key)
        if entry is not None and entry[0] == relation.version:
            return entry[1]
        return None

    def through_artifacts(
        self,
        key: Optional[ArtifactKey],
        build: Callable[[], Optional[T]],
        size: Callable[[T], int],
    ) -> Optional[T]:
        """``build()``, served from and published to the artifact cache.

        Without a ``key`` this is ``build()``.  With one, a cached artifact
        counts a hit and is returned; otherwise ``build()`` runs, and what it
        builds counts a miss and is put under ``key`` at ``size(value)``
        bytes.  ``build`` may return None (nothing built): no miss, no put.
        """
        if key is None:
            return build()
        cache = self.ex.artifact_cache
        artifact = cache.get(key)
        if artifact is not None:
            self.record.artifact_hits += 1
            return artifact
        value = build()
        if value is not None:
            self.record.artifact_misses += 1
            cache.put(key, value, size(value))
        return value

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
        reduced again.  Lookup order: the per-run index cache (keyed
        by relation version — the forward/backward pass and join-phase
        reuse), then the cross-query artifact cache (keyed by table version
        + filter fingerprint; only consulted while the relation is in its
        base state).  ``gather_keys`` runs only on a full miss.  A freshly
        built index headed for the artifact cache is frozen first so later
        queries — possibly on morsel worker threads — only ever read it.
        """
        cache_key = (alias, attributes)
        index = self.current(self.index_cache, cache_key, relation)
        if index is not None:
            return index
        artifact_key = self._index_artifact_key(alias, attributes)

        def build() -> HashIndex:
            built = HashIndex(gather_keys())
            if artifact_key is not None:
                probe_rows = expected_probe_rows or built.num_keys
                built.prepare(probe_rows)
                built.prepare_match(probe_rows)
            return built

        index = self.through_artifacts(artifact_key, build, HashIndex.index_bytes)
        self.index_cache[cache_key] = (relation.version, index)
        return index

    def caches_relation_index(
        self, alias: str, attributes: Tuple[str, ...], relation: BoundRelation
    ) -> bool:
        """True when :meth:`relation_index` would reuse an index from either
        cache, or publish the one it builds to the artifact cache."""
        if self.current(self.index_cache, (alias, attributes), relation) is not None:
            return True
        return self._index_artifact_key(alias, attributes) is not None

    def _index_artifact_key(self, alias: str, attributes: Tuple[str, ...]) -> Optional[ArtifactKey]:
        # Artifacts are keyed by the physical column, not the query-local
        # attribute-class name, so different queries share them.
        column = self.ex.graph.attribute_classes[attributes[0]].column_of(alias)
        return self.artifact_key(alias, column, kind=KIND_HASH_INDEX)
