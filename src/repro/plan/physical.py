"""The PhysicalPlan IR: one op vocabulary for the transfer *and* join phases.

Every :class:`~repro.engine.modes.ExecutionMode` *compiles*
``(QuerySpec, JoinPlan, TransferSchedule)`` into a single ordered list of
typed physical ops — the move pipeline engines (DuckDB and its descendants)
make — and one backend-pluggable executor
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
``HashBuild``     materialize and index the build side of one hash join
``HashProbe``     probe it, producing a new intermediate slot
``Aggregate``     compute the query's aggregates over the final slot
================  ==========================================================

The unit of the plan is the *step*: one transfer step is a
``BloomBuild`` immediately followed by the ``BloomProbe`` with its
``step_id`` (or a single ``SemiJoinReduce``), one join is an optional
join-scoped Bloom pair and a ``HashBuild`` / ``HashProbe`` pair sharing a
``build_id``.  The executor keeps one record per step id and per build id,
and §4.3 pruning skips whole steps.  How an op runs is not in
the plan: which index a ``HashBuild`` builds over its build side is decided
by the executor from the rows it has just materialized.

Ops reference their inputs through :class:`Operand` — either a bound base
relation (by alias) or a numbered intermediate *slot* produced by an earlier
``HashProbe``.  Transfer-phase ops reduce bound relations in place; the join
phase flows through slots.  Because the whole execution is one flat op list,
``ExecutionStats.op_stats`` yields a uniform per-op trace for all five modes
and the backends (serial, morsel-parallel) plug in beneath the same plan.

Compilation is pure: the functions here inspect only the query, the join
graph, table metadata (for §4.3 PK-FK pruning hints), the schedule, and the
join plan — no data is touched until the executor runs the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
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


@dataclass(frozen=True)
class PhysicalOp:
    """Base class of every physical op (see module docstring for the vocabulary)."""

    kind = "op"

    def describe(self) -> str:
        """One-line human-readable rendering of the op."""
        return self.kind


@dataclass(frozen=True)
class Scan(PhysicalOp):
    """Bind one base-table occurrence (``alias`` over catalog table ``table``)."""

    alias: str
    table: str
    kind = "scan"

    def describe(self) -> str:
        return f"scan {self.alias} ({self.table})"


@dataclass(frozen=True)
class FilterPush(PhysicalOp):
    """Apply ``alias``'s pushed-down base predicate to its bound relation."""

    alias: str
    kind = "filter_push"

    def describe(self) -> str:
        return f"filter {self.alias}"


@dataclass(frozen=True)
class BloomBuild(PhysicalOp):
    """Build and publish a Bloom filter over ``source``'s current join-key values.

    ``target`` is carried for key resolution only: composite join keys are
    packed with radices shared by both sides, so the build op must know
    which probe side it pairs with.  ``prunable`` marks steps that are
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


@dataclass(frozen=True)
class HashBuild(PhysicalOp):
    """Materialize the build side of one hash join (build id ``build_id``).

    For single-attribute joins the op also gathers the build keys and builds
    the hash index — a direct-address table or a sorted index, the
    executor's run-time choice from the rows it sees — so its trace entry
    carries the build cost.  Composite keys must be packed jointly with the
    probe side, so for multi-attribute joins that work happens in the paired
    ``HashProbe`` and this op's trace time covers materialization only.
    """

    build_id: int
    input: Operand
    attributes: Tuple[str, ...]
    kind = "hash_build"

    def describe(self) -> str:
        return f"hash_build #{self.build_id} {self.input.describe()} [{','.join(self.attributes)}]"


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


@dataclass(frozen=True)
class Aggregate(PhysicalOp):
    """Compute the query's aggregates over the final joined slot."""

    input: Operand
    kind = "aggregate"

    def describe(self) -> str:
        return f"aggregate {self.input.describe()}"


@dataclass(frozen=True)
class PhysicalPlan:
    """A fully compiled physical execution plan: one flat, ordered op list."""

    query_name: str
    mode: str
    ops: Tuple[PhysicalOp, ...]

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
) -> List[PhysicalOp]:
    """Compile a transfer schedule onto the shared op set.

    Each ``target ⋉ source`` step becomes a ``BloomBuild``/``BloomProbe``
    pair (Predicate Transfer) or a single ``SemiJoinReduce`` (exact
    Yannakakis).  The §4.3 PK-FK triviality hint is resolved statically from
    table metadata and attached to the ops; the runtime half of the check
    (source still unfiltered) stays with the executor.
    """
    ops: List[PhysicalOp] = []
    for step_id, step in enumerate(schedule):
        prunable = _statically_prunable(step, graph, tables)
        fields = dict(
            step_id=step_id,
            source=Operand.relation(step.source),
            target=Operand.relation(step.target),
            attributes=step.attributes,
            pass_=step.pass_.value,
        )
        if use_bloom:
            ops.append(BloomBuild(**fields, prunable=prunable))
            ops.append(BloomProbe(**fields))
        else:
            ops.append(SemiJoinReduce(**fields, prunable=prunable))
    return ops


def compile_join_ops(
    plan: JoinPlan,
    graph: JoinGraph,
    bloom_prefilter: bool = False,
) -> Tuple[List[PhysicalOp], Operand]:
    """Compile a join-plan tree into ``HashBuild``/``HashProbe`` ops.

    The tree is walked in post-order; every join node becomes a build/probe
    pair over operands (leaf aliases or earlier output slots), with the join
    attributes resolved *statically* from the graph's attribute classes and
    the two subtrees' alias sets.  With ``bloom_prefilter`` (the Bloom Join
    baseline) a join-scoped ``BloomBuild``/``BloomProbe`` pair precedes each
    hash join, pre-filtering the probe side.

    Returns ``(ops, root_operand)``.
    """
    ops: List[PhysicalOp] = []
    join_ids = count()

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
        # One id per join: its build id, its Bloom pair's step id, its slot.
        join_id = next(join_ids)
        if bloom_prefilter and attributes:
            fields = dict(
                step_id=join_id,
                source=build,
                target=probe,
                attributes=attributes,
                pass_=SCOPE_JOIN,
                scope=SCOPE_JOIN,
            )
            ops.append(BloomBuild(**fields))
            ops.append(BloomProbe(**fields))
        ops.append(HashBuild(build_id=join_id, input=build, attributes=attributes))
        ops.append(
            HashProbe(build_id=join_id, probe=probe, output_slot=join_id, attributes=attributes)
        )
        return Operand.intermediate(join_id)

    return ops, walk(plan.root)


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
    filters for the Bloom Join baseline), and the final aggregation.
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
    join_ops, root = compile_join_ops(plan, graph, bloom_prefilter=mode.uses_per_join_bloom)
    ops.extend(join_ops)
    ops.append(Aggregate(input=root))
    return PhysicalPlan(
        query_name=query.name, mode=getattr(mode, "value", str(mode)), ops=tuple(ops)
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
