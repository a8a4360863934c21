"""The PhysicalPlan IR: one op vocabulary for the transfer *and* join phases.

Historically the engine hard-wired two unrelated executors — a transfer-phase
executor walking a :class:`~repro.core.transfer_schedule.TransferSchedule`
and a join-phase executor walking a :class:`~repro.plan.join_plan.JoinPlan`
tree — glued together imperatively inside ``Database.execute``.  This module
replaces that with the architectural move pipeline engines (DuckDB and its
descendants) make: every :class:`~repro.engine.modes.ExecutionMode` *compiles*
``(QuerySpec, JoinPlan, TransferSchedule)`` into a single ordered list of
typed physical ops, and one backend-pluggable executor
(:class:`~repro.exec.pipeline.PipelineExecutor`) runs that list.

The op vocabulary:

================  ==========================================================
op                meaning
================  ==========================================================
``Scan``          bind one base-table occurrence into the execution
``FilterPush``    apply the relation's pushed-down base predicate
``BloomBuild``    build + publish a Bloom filter over a side's join keys
``BloomProbe``    probe a published filter and reduce the target side
``SemiJoinReduce``exact (hash) semi-join reduction (Yannakakis transfer)
``HashBuild``     materialize the build side of one hash join
``HashProbe``     probe it, producing a new intermediate slot
``Partition``     radix-partition a large build side (cache locality + the
                  granularity of parallel builds and governed spilling)
``PartitionedHashBuild``  per-partition index builds (parallel partial builds)
``PartitionedHashProbe``  per-partition probe, producing an intermediate slot
``Aggregate``     compute the query's aggregates over the final slot
================  ==========================================================

Ops reference their inputs through :class:`Operand` — either a bound base
relation (by alias) or a numbered intermediate *slot* produced by an earlier
``HashProbe``.  Transfer-phase ops reduce bound relations in place; the join
phase flows through slots.  Because the whole execution is one flat op list,
``ExecutionStats.op_stats`` yields a uniform per-op trace for all five modes
and alternative backends (serial, chunked/morsel) plug in beneath the same
plan.

Compilation is pure: the functions here inspect only the query, the join
graph, table metadata (for §4.3 PK-FK pruning hints), the schedule, and the
join plan — no data is touched until the executor runs the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.join_graph import JoinGraph
from repro.core.transfer_schedule import TransferSchedule, TransferStep
from repro.errors import PlanError
from repro.plan.join_plan import JoinNode, JoinPlan, LeafNode, PlanNode
from repro.query import QuerySpec
from repro.storage.table import Table

#: Scope tag for ops belonging to the transfer phase.
SCOPE_TRANSFER = "transfer"
#: Scope tag for ops belonging to the join phase (per-join SIP filters).
SCOPE_JOIN = "join"

#: Estimated build rows at which a hash join compiles to the
#: radix-partitioned form.  Below this a monolithic sort fits the caches and
#: the partitioning pass is pure overhead.
PARTITION_THRESHOLD = 1 << 17
#: Radix bits of a partitioned join (2^6 = 64 partitions).
PARTITION_BITS = 6


@dataclass(frozen=True)
class Operand:
    """Reference to a pipeline input: a bound base relation or an intermediate slot."""

    kind: str  # "relation" | "slot"
    alias: str = ""
    slot: int = -1

    @classmethod
    def relation(cls, alias: str) -> "Operand":
        """Reference a bound base-table occurrence by alias."""
        return cls(kind="relation", alias=alias)

    @classmethod
    def intermediate(cls, slot: int) -> "Operand":
        """Reference the output slot of an earlier ``HashProbe``."""
        return cls(kind="slot", slot=slot)

    @property
    def is_relation(self) -> bool:
        """True when this operand names a base relation."""
        return self.kind == "relation"

    def describe(self) -> str:
        """Short printable form (``alias`` or ``$slot``)."""
        return self.alias if self.is_relation else f"${self.slot}"

    def token(self) -> str:
        """Dependency token of this operand (see ``PhysicalOp.provides``)."""
        return f"rel:{self.alias}" if self.is_relation else f"slot:{self.slot}"


@dataclass(frozen=True)
class PhysicalOp:
    """Base class of every physical op (see module docstring for the vocabulary)."""

    kind = "op"

    def describe(self) -> str:
        """One-line human-readable rendering of the op."""
        return self.kind

    # ------------------------------------------------------------------
    # Dependency metadata
    # ------------------------------------------------------------------
    # Each op declares the dependency tokens it consumes (``requires``) and
    # the tokens it makes available to later ops (``provides``).  Tokens are
    # plain strings: ``rel:<alias>`` (a bound relation's current state),
    # ``slot:<n>`` (an intermediate result), ``stage:<step_id>`` (the filter
    # handed from a transfer build to its probe), and ``build:<id>`` (a
    # staged hash-join build side).  The metadata is *static* — derived from
    # the op fields alone — and is what the adaptive transfer controller
    # walks to cancel builds whose only consumers have been cancelled.
    def provides(self) -> Tuple[str, ...]:
        """Dependency tokens this op produces for downstream ops."""
        return ()

    def requires(self) -> Tuple[str, ...]:
        """Dependency tokens this op consumes from upstream ops."""
        return ()


@dataclass(frozen=True)
class Scan(PhysicalOp):
    """Bind one base-table occurrence (``alias`` over catalog table ``table``)."""

    alias: str
    table: str
    kind = "scan"

    def describe(self) -> str:
        return f"scan {self.alias} ({self.table})"

    def provides(self) -> Tuple[str, ...]:
        return (f"rel:{self.alias}",)


@dataclass(frozen=True)
class FilterPush(PhysicalOp):
    """Apply ``alias``'s pushed-down base predicate to its bound relation."""

    alias: str
    kind = "filter_push"

    def describe(self) -> str:
        return f"filter {self.alias}"

    def provides(self) -> Tuple[str, ...]:
        return (f"rel:{self.alias}",)

    def requires(self) -> Tuple[str, ...]:
        return (f"rel:{self.alias}",)


@dataclass(frozen=True)
class BloomBuild(PhysicalOp):
    """Build and publish a Bloom filter over ``source``'s current join-key values.

    ``target`` is carried for key resolution only: composite join keys are
    densified with a dictionary shared by both sides, so the build op must
    know which probe side it pairs with.  ``prunable`` marks steps that are
    *statically* trivial (single-attribute PK side of a declared PK-FK join,
    §4.3); the executor skips the build/probe pair at runtime when the source
    is additionally still unfiltered.
    """

    step_id: int
    source: Operand
    target: Operand
    attributes: Tuple[str, ...]
    pass_: str
    scope: str = SCOPE_TRANSFER
    prunable: bool = False
    kind = "bloom_build"

    def describe(self) -> str:
        return f"bloom_build {self.source.describe()} [{','.join(self.attributes)}] ({self.pass_})"

    def provides(self) -> Tuple[str, ...]:
        return (f"stage:{self.step_id}",)

    def requires(self) -> Tuple[str, ...]:
        # Composite keys are densified jointly with the probe side, so the
        # build of a multi-attribute step reads the target too.
        if len(self.attributes) > 1:
            return (self.source.token(), self.target.token())
        return (self.source.token(),)


@dataclass(frozen=True)
class BloomProbe(PhysicalOp):
    """Probe the step's published Bloom filter with ``target`` and drop misses."""

    step_id: int
    source: Operand
    target: Operand
    attributes: Tuple[str, ...]
    pass_: str
    scope: str = SCOPE_TRANSFER
    kind = "bloom_probe"

    def describe(self) -> str:
        return (
            f"bloom_probe {self.target.describe()} ⋉ {self.source.describe()} "
            f"[{','.join(self.attributes)}] ({self.pass_})"
        )

    def provides(self) -> Tuple[str, ...]:
        return (self.target.token(),)

    def requires(self) -> Tuple[str, ...]:
        return (f"stage:{self.step_id}", self.target.token())


@dataclass(frozen=True)
class SemiJoinReduce(PhysicalOp):
    """Exact semi-join reduction ``target ⋉ source`` (the Yannakakis transfer step)."""

    step_id: int
    source: Operand
    target: Operand
    attributes: Tuple[str, ...]
    pass_: str
    prunable: bool = False
    kind = "semi_join_reduce"

    def describe(self) -> str:
        return (
            f"semi_join {self.target.describe()} ⋉ {self.source.describe()} "
            f"[{','.join(self.attributes)}] ({self.pass_})"
        )

    def provides(self) -> Tuple[str, ...]:
        return (self.target.token(),)

    def requires(self) -> Tuple[str, ...]:
        return (self.source.token(), self.target.token())


@dataclass(frozen=True)
class Partition(PhysicalOp):
    """Radix-partition the build side of one hash join into ``2**bits`` partitions.

    The partitioning itself is O(n) (a multiplicative hash plus a radix sort
    of the small partition ids); the per-partition index builds are the
    paired ``PartitionedHashBuild``'s job.  Partitioning is compiled in when
    the *estimated* build side is large enough that a monolithic sort and
    cache-missing probes would dominate (see ``compile_join_ops``), and it is
    the granularity at which the memory governor reserves, spills, and
    reloads build-side memory.
    """

    build_id: int
    input: Operand
    attributes: Tuple[str, ...]
    bits: int
    kind = "partition"

    def describe(self) -> str:
        return (
            f"partition #{self.build_id} {self.input.describe()} "
            f"[{','.join(self.attributes)}] into 2^{self.bits}"
        )

    def provides(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}",)

    def requires(self) -> Tuple[str, ...]:
        return (self.input.token(),)


@dataclass(frozen=True)
class PartitionedHashBuild(PhysicalOp):
    """Build the per-partition hash indexes of a radix-partitioned build side.

    Every non-empty partition is an independent sort — the per-worker partial
    builds a morsel-parallel backend runs concurrently; the op completes only
    when all partitions are built (the pipeline-breaker merge).
    """

    build_id: int
    input: Operand
    attributes: Tuple[str, ...]
    kind = "partitioned_hash_build"

    def describe(self) -> str:
        return (
            f"partitioned_hash_build #{self.build_id} {self.input.describe()} "
            f"[{','.join(self.attributes)}]"
        )

    def provides(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}",)

    def requires(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}", self.input.token())


@dataclass(frozen=True)
class PartitionedHashProbe(PhysicalOp):
    """Probe a radix-partitioned build with ``probe``, emitting slot ``output_slot``.

    The probe side is partitioned with the same key hash and each partition
    is matched only against its build counterpart — shorter binary searches
    over cache-resident segments, and one independent task per partition for
    the parallel backend.
    """

    build_id: int
    probe: Operand
    output_slot: int
    attributes: Tuple[str, ...]
    kind = "partitioned_hash_probe"

    def describe(self) -> str:
        return (
            f"partitioned_hash_probe #{self.build_id} {self.probe.describe()} "
            f"[{','.join(self.attributes)}] -> ${self.output_slot}"
        )

    def provides(self) -> Tuple[str, ...]:
        return (f"slot:{self.output_slot}",)

    def requires(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}", self.probe.token())


@dataclass(frozen=True)
class HashBuild(PhysicalOp):
    """Materialize the build side of one hash join (build id ``build_id``).

    For single-attribute joins the op also gathers the build keys and sorts
    the hash index, so its trace entry carries the build cost.  Composite
    keys must be densified jointly with the probe side, so for
    multi-attribute joins that work happens in the paired ``HashProbe`` and
    this op's trace time covers materialization only.
    """

    build_id: int
    input: Operand
    attributes: Tuple[str, ...]
    kind = "hash_build"

    def describe(self) -> str:
        return f"hash_build #{self.build_id} {self.input.describe()} [{','.join(self.attributes)}]"

    def provides(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}",)

    def requires(self) -> Tuple[str, ...]:
        return (self.input.token(),)


@dataclass(frozen=True)
class HashProbe(PhysicalOp):
    """Probe hash build ``build_id`` with ``probe``, emitting slot ``output_slot``.

    An empty ``attributes`` tuple marks a Cartesian product (the two sides
    share no attribute class); the executor rejects it unless explicitly
    allowed.
    """

    build_id: int
    probe: Operand
    output_slot: int
    attributes: Tuple[str, ...]
    kind = "hash_probe"

    def describe(self) -> str:
        keys = ",".join(self.attributes) if self.attributes else "⨯"
        return f"hash_probe #{self.build_id} {self.probe.describe()} [{keys}] -> ${self.output_slot}"

    def provides(self) -> Tuple[str, ...]:
        return (f"slot:{self.output_slot}",)

    def requires(self) -> Tuple[str, ...]:
        return (f"build:{self.build_id}", self.probe.token())


@dataclass(frozen=True)
class Aggregate(PhysicalOp):
    """Compute the query's aggregates over the final joined slot."""

    input: Operand
    kind = "aggregate"

    def describe(self) -> str:
        return f"aggregate {self.input.describe()}"

    def requires(self) -> Tuple[str, ...]:
        return (self.input.token(),)


@dataclass(frozen=True)
class PhysicalPlan:
    """A fully compiled physical execution plan: one flat, ordered op list."""

    query_name: str
    mode: str
    ops: Tuple[PhysicalOp, ...]
    num_slots: int = 0
    root: Optional[Operand] = None

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def op_kinds(self) -> Tuple[str, ...]:
        """The ordered op-kind sequence (what the compilation tests assert on)."""
        return tuple(op.kind for op in self.ops)

    def count(self, kind: str) -> int:
        """Number of ops of one kind."""
        return sum(1 for op in self.ops if op.kind == kind)

    def describe(self) -> str:
        """Multi-line rendering of the compiled plan."""
        header = f"PhysicalPlan(query={self.query_name!r}, mode={self.mode}, ops={len(self.ops)})"
        return "\n".join([header] + [f"  {i:>3}: {op.describe()}" for i, op in enumerate(self.ops)])


# ---------------------------------------------------------------------------
# Compilers
# ---------------------------------------------------------------------------
def compile_scan_filter(query: QuerySpec) -> List[PhysicalOp]:
    """Scan every relation occurrence and push its base filter (when present)."""
    ops: List[PhysicalOp] = []
    for ref in query.relations:
        ops.append(Scan(alias=ref.alias, table=ref.table))
    for ref in query.relations:
        if ref.filter is not None:
            ops.append(FilterPush(alias=ref.alias))
    return ops


def compile_transfer_ops(
    schedule: TransferSchedule,
    graph: JoinGraph,
    tables: Mapping[str, Table],
    use_bloom: bool = True,
    first_step_id: int = 0,
) -> List[PhysicalOp]:
    """Compile a transfer schedule onto the shared op set.

    Each ``target ⋉ source`` step becomes a ``BloomBuild``/``BloomProbe``
    pair (Predicate Transfer) or a single ``SemiJoinReduce`` (exact
    Yannakakis).  The §4.3 PK-FK triviality hint is resolved statically from
    table metadata and attached to the ops; the runtime half of the check
    (source still unfiltered) stays with the executor.
    """
    ops: List[PhysicalOp] = []
    step_id = first_step_id
    for step in schedule:
        prunable = _statically_prunable(step, graph, tables)
        source = Operand.relation(step.source)
        target = Operand.relation(step.target)
        if use_bloom:
            ops.append(
                BloomBuild(
                    step_id=step_id,
                    source=source,
                    target=target,
                    attributes=step.attributes,
                    pass_=step.pass_.value,
                    prunable=prunable,
                )
            )
            ops.append(
                BloomProbe(
                    step_id=step_id,
                    source=source,
                    target=target,
                    attributes=step.attributes,
                    pass_=step.pass_.value,
                )
            )
        else:
            ops.append(
                SemiJoinReduce(
                    step_id=step_id,
                    source=source,
                    target=target,
                    attributes=step.attributes,
                    pass_=step.pass_.value,
                    prunable=prunable,
                )
            )
        step_id += 1
    return ops


def compile_join_ops(
    plan: JoinPlan,
    graph: JoinGraph,
    bloom_prefilter: bool = False,
    first_build_id: int = 0,
) -> Tuple[List[PhysicalOp], Operand, int]:
    """Compile a join-plan tree into ``HashBuild``/``HashProbe`` ops.

    The tree is walked in post-order; every join node becomes a build/probe
    pair over operands (leaf aliases or earlier output slots), with the join
    attributes resolved *statically* from the graph's attribute classes and
    the two subtrees' alias sets.  With ``bloom_prefilter`` (the Bloom Join
    baseline) a join-scoped ``BloomBuild``/``BloomProbe`` pair precedes each
    hash join, pre-filtering the probe side.

    Single-attribute joins whose *estimated* build side reaches
    :data:`PARTITION_THRESHOLD` compile to the radix-partitioned form
    instead: ``Partition`` (:data:`PARTITION_BITS` radix bits) +
    ``PartitionedHashBuild`` + ``PartitionedHashProbe``.  The estimate is
    static (the graph's filtered base cardinalities; for intermediate build
    sides the largest member relation), keeping compilation pure.  Composite-key and Cartesian joins
    always take the monolithic form.

    Returns ``(ops, root_operand, num_slots)``.
    """
    ops: List[PhysicalOp] = []
    counter = {"build": first_build_id, "slot": 0}

    def estimated_rows(aliases) -> int:
        return max((graph.size(alias) for alias in aliases), default=0)

    def walk(node: PlanNode) -> Operand:
        if isinstance(node, LeafNode):
            return Operand.relation(node.alias)
        assert isinstance(node, JoinNode)
        left = walk(node.left)
        right = walk(node.right)
        probe, build = (right, left) if node.flip_build_side else (left, right)
        probe_aliases = node.right.aliases if node.flip_build_side else node.left.aliases
        build_aliases = node.left.aliases if node.flip_build_side else node.right.aliases
        attributes = shared_attribute_classes(graph, probe_aliases, build_aliases)
        build_id = counter["build"]
        counter["build"] += 1
        if bloom_prefilter and attributes:
            ops.append(
                BloomBuild(
                    step_id=build_id,
                    source=build,
                    target=probe,
                    attributes=attributes,
                    pass_=SCOPE_JOIN,
                    scope=SCOPE_JOIN,
                )
            )
            ops.append(
                BloomProbe(
                    step_id=build_id,
                    source=build,
                    target=probe,
                    attributes=attributes,
                    pass_=SCOPE_JOIN,
                    scope=SCOPE_JOIN,
                )
            )
        slot = counter["slot"]
        counter["slot"] += 1
        if len(attributes) == 1 and estimated_rows(build_aliases) >= PARTITION_THRESHOLD:
            ops.append(
                Partition(
                    build_id=build_id, input=build, attributes=attributes, bits=PARTITION_BITS
                )
            )
            ops.append(
                PartitionedHashBuild(build_id=build_id, input=build, attributes=attributes)
            )
            ops.append(
                PartitionedHashProbe(
                    build_id=build_id, probe=probe, output_slot=slot, attributes=attributes
                )
            )
        else:
            ops.append(HashBuild(build_id=build_id, input=build, attributes=attributes))
            ops.append(
                HashProbe(build_id=build_id, probe=probe, output_slot=slot, attributes=attributes)
            )
        return Operand.intermediate(slot)

    root = walk(plan.root)
    return ops, root, counter["slot"]


def compile_execution(
    query: QuerySpec,
    mode,
    plan: JoinPlan,
    graph: JoinGraph,
    tables: Mapping[str, Table],
    schedule: Optional[TransferSchedule] = None,
) -> PhysicalPlan:
    """Compile one full query execution (every phase) into a PhysicalPlan.

    This is what ``Database.execute`` calls: scan + filter pushdown, the
    mode's transfer phase (if any), the join phase (with per-join SIP
    filters for the Bloom Join baseline, and radix-partitioned hash joins
    for estimated build sides at or above :data:`PARTITION_THRESHOLD`), and
    the final aggregation.
    """
    ops: List[PhysicalOp] = compile_scan_filter(query)
    if mode.uses_transfer_phase:
        if schedule is None:
            raise PlanError(f"mode {mode} requires a transfer schedule to compile")
        ops.extend(
            compile_transfer_ops(
                schedule, graph, tables, use_bloom=mode.uses_bloom_filters
            )
        )
    join_ops, root, num_slots = compile_join_ops(
        plan, graph, bloom_prefilter=mode.uses_per_join_bloom
    )
    ops.extend(join_ops)
    ops.append(Aggregate(input=root))
    return PhysicalPlan(
        query_name=query.name,
        mode=getattr(mode, "value", str(mode)),
        ops=tuple(ops),
        num_slots=num_slots,
        root=root,
    )


# ---------------------------------------------------------------------------
# Static analysis helpers
# ---------------------------------------------------------------------------
def shared_attribute_classes(
    graph: JoinGraph,
    left_aliases: frozenset,
    right_aliases: frozenset,
) -> Tuple[str, ...]:
    """Attribute classes with member columns on both sides of a join.

    This implements transitive equality inference (``R.a = S.b AND S.b = T.c``
    lets ``R`` join ``T`` directly) at compile time — the alias sets of both
    subtrees are known statically.
    """
    shared: List[str] = []
    for name, attr_class in sorted(graph.attribute_classes.items()):
        touches_left = any(attr_class.touches(a) for a in left_aliases)
        touches_right = any(attr_class.touches(a) for a in right_aliases)
        if touches_left and touches_right:
            shared.append(name)
    return tuple(shared)


def _statically_prunable(
    step: TransferStep, graph: JoinGraph, tables: Mapping[str, Table]
) -> bool:
    """§4.3 hint: the source is the PK side of a declared single-attribute PK-FK join."""
    if len(step.attributes) != 1:
        return False
    attr_class = graph.attribute_classes[step.attributes[0]]
    source_table = tables.get(step.source)
    target_table = tables.get(step.target)
    if source_table is None or target_table is None:
        return False
    source_column = attr_class.column_of(step.source)
    target_column = attr_class.column_of(step.target)
    if not source_table.is_primary_key(source_column):
        return False
    for fk in target_table.foreign_keys:
        if fk.column == target_column and fk.ref_table == source_table.name:
            return True
    return False
