"""The ``Database`` façade: the public entry point of the library.

A :class:`Database` owns a catalog of tables and executes
:class:`~repro.query.QuerySpec` queries under any of the
:class:`~repro.engine.modes.ExecutionMode` strategies, optionally with an
explicit join plan (the robustness experiments supply random plans).
Without one, RPT and Yannakakis join an α-acyclic query root-first along
their LargestRoot tree; every other case takes the built-in optimizer's plan.

Execution is *compile-then-run*: every mode compiles
``(QuerySpec, JoinPlan, TransferSchedule)`` into one
:class:`~repro.plan.physical.PhysicalPlan` — a flat list of typed ops
spanning scan, transfer, and join phases — which the backend-pluggable
:class:`~repro.exec.pipeline.PipelineExecutor` runs.  The compiled plan and
its uniform per-op trace are exposed on the :class:`QueryResult`.

Typical usage::

    db = Database()
    db.register_dataframe("orders", {"o_orderkey": [...], ...}, primary_key=["o_orderkey"])
    result = db.execute(query, mode=ExecutionMode.RPT)
    print(result.aggregates, result.stats.total_intermediate_rows)
    print(result.physical_plan.describe())
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.join_graph import JoinGraph
from repro.core.join_tree import JoinTree, is_alpha_acyclic, is_gamma_acyclic
from repro.core.largest_root import largest_root
from repro.core.small2large import small2large
from repro.core.transfer_schedule import (
    TransferSchedule,
    schedule_from_transfer_graph,
    schedule_from_tree,
)
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.engine.plancache import pin_statement
from repro.errors import (
    BackendUnavailable,
    PlanError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.exec import faults
from repro.exec.backends import make_backend
from repro.exec.faults import CancelToken
from repro.exec.pipeline import PipelineExecutor, TransferOptions
from repro.exec.relation import BoundRelation
from repro.exec.statistics import ExecutionStats, OpStats
from repro.obs.trace import Span, Tracer
from repro.storage.artifacts import ArtifactCache, mask_fingerprint
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.join_order import JoinOrderOptimizer
from repro.plan.join_plan import JoinPlan, validate_plan_for_query
from repro.plan.physical import PhysicalPlan, compile_execution
from repro.query import QuerySpec
from repro.sql import Statement
from repro.storage.catalog import Catalog, CatalogSnapshot
from repro.storage.datatypes import DataType
from repro.storage.table import ForeignKey, Table


@dataclass
class QueryResult:
    """The outcome of one query execution."""

    query: QuerySpec
    mode: ExecutionMode
    plan: JoinPlan
    aggregates: Dict[str, float]
    stats: ExecutionStats
    join_tree: Optional[JoinTree] = None
    schedule: Optional[TransferSchedule] = None
    relations: Dict[str, BoundRelation] = field(default_factory=dict)
    #: The compiled physical plan the execution ran through.
    physical_plan: Optional[PhysicalPlan] = None
    #: The resolved runtime configuration the execution ran under.
    execution_config: Optional[ExecutionConfig] = None
    #: Root of the hierarchical span tree (query -> phase -> op -> batch)
    #: when tracing was enabled (``ExecutionConfig.tracing`` / REPRO_TRACE);
    #: ``None`` otherwise.  Render with :func:`repro.obs.export.render_timeline`.
    trace: Optional[Span] = None

    @property
    def output_rows(self) -> int:
        """Number of joined tuples in the final result (before aggregation)."""
        return self.stats.output_rows

    @property
    def op_stats(self):
        """Per-op statistics of the compiled plan (uniform across all modes)."""
        return self.stats.op_stats


def render_op_trace(mode: ExecutionMode, stats: ExecutionStats) -> str:
    """Mode header, per-op trace, and the execution summary line (if any)."""
    lines = [f"== {mode.label} ==", stats.op_trace()]
    summary = stats.execution_summary()
    if summary:
        lines.append(summary)
    return "\n".join(lines)


@dataclass
class ExplainResult:
    """The outcome of planning a query *without* executing it.

    Produced by :meth:`Database.explain` / :meth:`Database.explain_sql` and
    by ``EXPLAIN SELECT`` statements through :meth:`Database.sql`.  The
    ``stats`` carry one zero-cost :class:`~repro.exec.statistics.OpStats`
    entry per compiled op, so an EXPLAIN renders the same way an executed
    trace does.
    """

    query: QuerySpec
    mode: ExecutionMode
    plan: JoinPlan
    physical_plan: PhysicalPlan
    stats: ExecutionStats
    join_tree: Optional[JoinTree] = None
    schedule: Optional[TransferSchedule] = None
    execution_config: Optional[ExecutionConfig] = None

    @property
    def op_stats(self):
        """Static per-op entries of the compiled plan (zero rows/seconds)."""
        return self.stats.op_stats

    def describe(self) -> str:
        """The compiled physical plan, one op per line."""
        return self.physical_plan.describe()

    def render(self) -> str:
        """The formatted op trace (what ``EXPLAIN`` prints)."""
        return render_op_trace(self.mode, self.stats)


@dataclass
class ExplainAnalyzeResult(QueryResult):
    """The outcome of ``EXPLAIN ANALYZE SELECT ...``: the executed query's
    :class:`QueryResult`, whose :meth:`render` prints the compiled plan
    annotated with the execution's actual per-op rows, seconds, morsel
    counts and skip/degradation markers, followed by the hierarchical span
    timeline (``EXPLAIN ANALYZE`` always runs traced).
    """

    def render(self) -> str:
        """The annotated plan (what ``EXPLAIN ANALYZE`` prints)."""
        from repro.obs.export import render_timeline

        parts = [render_op_trace(self.mode, self.stats)]
        if self.trace is not None:
            parts.append("")
            parts.append(render_timeline(self.trace))
        return "\n".join(parts)


@dataclass
class _PreparedExecution:
    """Everything :meth:`Database.execute` and :meth:`Database.explain` share:
    the planned, compiled — but not yet executed — query."""

    plan: JoinPlan
    graph: JoinGraph
    join_tree: Optional[JoinTree]
    schedule: Optional[TransferSchedule]
    #: alias -> the boolean mask of its evaluated base predicate.
    masks: Dict[str, np.ndarray]
    physical: PhysicalPlan


_Prepare = Callable[[ExecutionStats, CatalogSnapshot], _PreparedExecution]


@dataclass(frozen=True)
class ExecutionOptions:
    """Per-execution settings.  None of them changes the chosen join plan."""

    transfer: TransferOptions = field(default_factory=TransferOptions)
    #: §4.3: skip the backward pass when the join order aligns with the transfer
    #: order — which every tree-planned RPT / Yannakakis query does.
    skip_backward_if_aligned: bool = False
    #: Runtime configuration (backend, threads, deadline, policies);
    #: unset knobs resolve from ``REPRO_*`` variables once per execution.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: Pre-created :class:`~repro.exec.faults.CancelToken` for cooperative
    #: cancellation from another thread (``token.cancel()``); when ``None``
    #: a token is created internally iff ``execution.timeout_seconds`` is set.
    cancel: Optional[CancelToken] = None
    #: Caller-supplied :class:`~repro.obs.trace.Tracer` — lets a server or
    #: benchmark collect spans from several executions under one root.  When
    #: ``None`` a tracer is created internally iff ``execution.tracing``.
    tracer: Optional[Tracer] = None


class Database:
    """An in-process analytical database instance (the DuckDB stand-in)."""

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self.catalog = catalog or Catalog()
        # Cross-query artifact cache, created lazily on the first execution
        # configured with ``artifact_cache=True`` and shared by every later
        # one (that sharing *is* the repeated-traffic win).
        self._artifact_cache: Optional[ArtifactCache] = None
        self._artifact_cache_init_lock = threading.Lock()
        self._closed = False
        # In-flight execution tracking: close() drains active queries, and
        # new admissions after close() raise immediately.
        self._state = threading.Condition()
        self._active = 0
        # Release-driven invalidation: when the last snapshot pinning a
        # replaced table version lets go, reclaim that version's cached
        # artifacts.  (When nothing pins the old
        # version, the catalog fires this synchronously from register —
        # the old eager-invalidation behaviour.)
        self.catalog.add_release_hook(self._on_version_released)

    def _on_version_released(self, name: str, version: int) -> None:
        cache = self._artifact_cache
        if cache is not None:
            cache.invalidate_version(name, version)

    def _begin_execution(self) -> None:
        with self._state:
            self._ensure_open()
            self._active += 1

    def _end_execution(self) -> None:
        with self._state:
            self._active -= 1
            self._state.notify_all()

    @property
    def active_queries(self) -> int:
        """Number of queries currently executing (any thread)."""
        with self._state:
            return self._active

    @property
    def artifact_cache(self) -> Optional[ArtifactCache]:
        """The database's cross-query artifact cache (None until first used)."""
        return self._artifact_cache

    def _ensure_artifact_cache(self) -> ArtifactCache:
        with self._artifact_cache_init_lock:
            if self._artifact_cache is None:
                self._artifact_cache = ArtifactCache()
            return self._artifact_cache

    def close(self) -> None:
        """Stop admitting queries and drain the ones in flight; idempotent.

        Executing queries after ``close()`` raises
        :class:`~repro.errors.ReproError`.  Safe to call while queries are
        in flight on other threads: close first stops new admissions, then
        *drains* — waits for every active execution to finish.  (To cut
        queries short instead of waiting, cancel their tokens first — e.g.
        ``Server.close`` does.)
        """
        with self._state:
            self._closed = True
            while self._active:
                self._state.wait()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                "database is closed; create a new Database to execute queries"
            )

    # ------------------------------------------------------------------
    # Table registration
    # ------------------------------------------------------------------
    def register_table(self, table: Table, replace: bool = False) -> None:
        """Register a pre-built :class:`Table`.

        Replacing a table never tears an in-flight query: executions pin a
        catalog snapshot, so a replaced version's cached artifacts are
        reclaimed through the catalog's release hooks — immediately when
        nothing pins the old version, otherwise when its last reader
        releases it.
        """
        self.catalog.register(table, replace=replace)

    def register_dataframe(
        self,
        name: str,
        data: Mapping[str, Any],
        dtypes: Optional[Mapping[str, DataType]] = None,
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
        replace: bool = False,
    ) -> Table:
        """Create a table from a mapping of column name to values or ``Column`` and register it."""
        table = Table.from_dict(
            name,
            data,
            dtypes=dtypes,
            primary_key=primary_key,
            foreign_keys=foreign_keys,
        )
        self.register_table(table, replace=replace)
        return table

    def table(self, name: str) -> Table:
        """Return a registered table."""
        return self.catalog.table(name)

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def filter_masks(
        self, query: QuerySpec, catalog: Optional[Any] = None
    ) -> Dict[str, np.ndarray]:
        """Evaluate every base-table predicate of ``query`` exactly once.

        The returned alias -> boolean-mask mapping feeds both the join-graph
        cardinalities and the scan's ``FilterPush`` ops, so a predicate is
        never evaluated twice per execution.  ``catalog`` may be a pinned
        :class:`~repro.storage.catalog.CatalogSnapshot`.
        """
        catalog = catalog if catalog is not None else self.catalog
        return {
            ref.alias: np.asarray(ref.filter.evaluate(catalog.table(ref.table)), dtype=bool)
            for ref in query.relations
            if ref.filter is not None
        }

    def join_graph(
        self,
        query: QuerySpec,
        use_filtered_sizes: bool = True,
        masks: Optional[Mapping[str, np.ndarray]] = None,
        catalog: Optional[Any] = None,
    ) -> JoinGraph:
        """Build the join graph of a query with (filtered) relation cardinalities.

        ``masks`` — precomputed base-filter masks from :meth:`filter_masks` —
        avoids re-evaluating the predicates for the cardinalities.
        ``catalog`` may be a pinned :class:`~repro.storage.catalog.CatalogSnapshot`.
        """
        catalog = catalog if catalog is not None else self.catalog
        sizes: Dict[str, int] = {}
        for ref in query.relations:
            table = catalog.table(ref.table)
            if use_filtered_sizes and ref.filter is not None:
                if masks is not None and ref.alias in masks:
                    sizes[ref.alias] = int(masks[ref.alias].sum())
                else:
                    sizes[ref.alias] = int(ref.filter.evaluate(table).sum())
            else:
                sizes[ref.alias] = table.num_rows
        return JoinGraph.from_query(query, relation_sizes=sizes)

    def optimizer_plan(
        self,
        query: QuerySpec,
        *,
        graph: Optional[JoinGraph] = None,
        catalog: Optional[Any] = None,
    ) -> JoinPlan:
        """The join plan chosen by the built-in cost-based optimizer."""
        catalog = catalog if catalog is not None else self.catalog
        graph = graph or self.join_graph(query, catalog=catalog)
        return JoinOrderOptimizer(graph, CardinalityEstimator(catalog, query, graph)).optimize()

    def is_acyclic(self, query: QuerySpec) -> bool:
        """True when the query is α-acyclic."""
        return is_alpha_acyclic(self.join_graph(query, use_filtered_sizes=False))

    def is_gamma_acyclic(self, query: QuerySpec) -> bool:
        """True when the query is γ-acyclic."""
        return is_gamma_acyclic(self.join_graph(query, use_filtered_sizes=False))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: QuerySpec,
        mode: ExecutionMode = ExecutionMode.RPT,
        plan: Optional[JoinPlan] = None,
        options: Optional[ExecutionOptions] = None,
        snapshot: Optional[CatalogSnapshot] = None,
    ) -> QueryResult:
        """Execute ``query`` under ``mode``.

        Parameters
        ----------
        query:
            The declarative query.
        mode:
            Execution strategy (baseline, Bloom join, PT, RPT, Yannakakis).
        plan:
            Explicit join-phase plan, always run as given.  When omitted,
            RPT and Yannakakis plan an α-acyclic query of two or more
            relations as the root-first walk of their LargestRoot tree (a
            safe-subjoin order once transfer has fully reduced the input);
            every other query and mode uses the built-in optimizer's plan —
            the paper's "optimizer's plan" configuration.
        options:
            Tuning knobs; defaults follow the paper (2% FPR, pruning on).
        snapshot:
            A pinned :class:`~repro.storage.catalog.CatalogSnapshot` to
            execute against (MVCC-lite isolation: a concurrent
            ``register_table(replace=True)`` cannot tear this run).  When
            omitted the execution pins — and releases — its own snapshot;
            a caller-supplied snapshot stays pinned for the caller to
            release.
        """
        options = options or ExecutionOptions()
        return self._execute(
            query, mode, options, snapshot,
            lambda stats, catalog: self._prepare(query, mode, plan, options, stats, catalog),
        )

    @contextmanager
    def _running(self, query: QuerySpec, snapshot: Optional[CatalogSnapshot]):
        """The bracket of every execution and EXPLAIN: admit the query and
        yield ``snapshot`` — or one pinning ``query``'s tables, released on
        the way out when the caller supplied none."""
        self._begin_execution()
        owned: Optional[CatalogSnapshot] = None
        try:
            if snapshot is None:
                owned = snapshot = self.catalog.snapshot(
                    ref.table for ref in query.relations
                )
            yield snapshot
        finally:
            if owned is not None:
                owned.release()
            self._end_execution()

    def _execute(self, query, mode, options, snapshot, prepare: _Prepare) -> QueryResult:
        """:meth:`execute` with its planning front half supplied as
        ``prepare(stats, snapshot)`` (a server passes its cache's)."""
        with self._running(query, snapshot) as snapshot:
            stats = ExecutionStats(query_name=query.name, mode=mode.value)
            # An explicit per-execution fault plan overrides the process-global
            # injector for the duration of this call (the env-driven plan, when
            # any, is restored afterwards by re-reading REPRO_FAULTS lazily).
            scoped_faults = False
            config = options.execution.resolved()
            if config.faults is not None:
                faults.configure(config.faults)
                scoped_faults = True
            tracer = options.tracer
            if tracer is None and config.tracing:
                tracer = Tracer()
            query_span = None
            if tracer is not None:
                query_span = tracer.start(
                    query.name or "query",
                    "query",
                    mode=mode.value,
                    backend=config.backend,
                )
            try:
                return self._execute_configured(
                    query, mode, prepare, options, config, stats, snapshot, tracer=tracer
                )
            except (QueryTimeout, QueryCancelled) as error:
                # The typed deadline/cancel errors carry the partial statistics
                # of the aborted run.
                error.stats = stats
                raise
            finally:
                if query_span is not None:
                    # Exception-safe: finishing the root unwinds any spans an
                    # aborted run left open, stamping their ends.
                    tracer.finish(query_span)
                if scoped_faults:
                    faults.clear()

    def _execute_configured(
        self,
        query: QuerySpec,
        mode: ExecutionMode,
        prepare: _Prepare,
        options: ExecutionOptions,
        config: ExecutionConfig,
        stats: ExecutionStats,
        snapshot: CatalogSnapshot,
        tracer: Optional[Tracer] = None,
    ) -> QueryResult:
        plan_span = tracer.start("plan", "phase") if tracer is not None else None
        prep = prepare(stats, snapshot)
        if plan_span is not None:
            tracer.finish(plan_span, ops=len(prep.physical.ops))
        plan, graph, schedule = prep.plan, prep.graph, prep.schedule
        join_tree, masks, physical = prep.join_tree, prep.masks, prep.physical
        token = options.cancel
        if token is None and config.timeout_seconds is not None:
            token = CancelToken(config.timeout_seconds)
        artifact_cache = None
        fingerprints = None
        table_versions = None
        if config.artifact_cache:
            artifact_cache = self._ensure_artifact_cache()
            fingerprints = {
                ref.alias: mask_fingerprint(masks.get(ref.alias)) for ref in query.relations
            }
            table_versions = {
                ref.alias: snapshot.version(ref.table) for ref in query.relations
            }
        # The backend's pool threads live from the ladder to this close(),
        # on every path out.
        backend = self._backend_ladder(config, stats)
        try:
            backend.cancel = token
            executor = PipelineExecutor(
                query,
                graph,
                catalog=snapshot,
                transfer=options.transfer,
                backend=backend,
                artifact_cache=artifact_cache,
                table_versions=table_versions,
                fingerprints=fingerprints,
                tracer=tracer,
            )
            run = executor.run(physical, stats, masks=masks)
        finally:
            backend.close()
        if schedule is not None:
            for alias, relation in run.relations.items():
                stats.reduced_rows[alias] = relation.num_rows

        return QueryResult(
            query=query,
            mode=mode,
            plan=plan,
            aggregates=run.aggregates or {},
            stats=stats,
            join_tree=join_tree,
            schedule=schedule,
            relations=run.relations,
            physical_plan=physical,
            execution_config=config,
            trace=tracer.root if tracer is not None else None,
        )

    #: Graceful-degradation order when a backend cannot start: parallel
    #: (thread pool) falls back to serial.  Results are bit-identical on
    #: every rung.
    _BACKEND_LADDER = {"parallel": "serial"}

    def _backend_ladder(self, config: ExecutionConfig, stats: ExecutionStats):
        """Instantiate the configured backend, degrading down the ladder.

        Each :class:`~repro.errors.BackendUnavailable` from
        ``ensure_ready()`` (pool failed to start, injected ``parallel.pool``
        fault) steps one rung down and records
        ``backend:<from>-><to>`` in ``stats.degradations``; serial has no
        further rung and re-raises.
        """
        name = config.backend
        while True:
            backend = make_backend(name, config.num_threads)
            try:
                backend.ensure_ready()
                return backend
            except BackendUnavailable:
                fallback = self._BACKEND_LADDER.get(name)
                if fallback is None:
                    raise
                stats.record_degradation(f"backend:{name}->{fallback}")
                backend.close()
                name = fallback

    # ------------------------------------------------------------------
    # EXPLAIN and the SQL front end
    # ------------------------------------------------------------------
    def explain(
        self,
        query: QuerySpec,
        mode: ExecutionMode = ExecutionMode.RPT,
        plan: Optional[JoinPlan] = None,
        options: Optional[ExecutionOptions] = None,
        snapshot: Optional[CatalogSnapshot] = None,
    ) -> ExplainResult:
        """Plan and compile ``query`` without executing it.

        Runs the exact planning path of :meth:`execute` — base-filter masks,
        join graph, transfer schedule, join plan, physical-plan compilation —
        and returns an :class:`ExplainResult` whose stats carry one zero-cost
        entry per compiled op, so the usual trace renderers work on it.
        ``snapshot`` is pinned and released as in :meth:`execute`.
        """
        options = options or ExecutionOptions()
        return self._explain(
            query, mode, options, snapshot,
            lambda stats, catalog: self._prepare(query, mode, plan, options, stats, catalog),
        )

    def _explain(self, query, mode, options, snapshot, prepare: _Prepare) -> ExplainResult:
        """:meth:`explain` with its planning supplied as in :meth:`_execute`."""
        with self._running(query, snapshot) as snapshot:
            config = options.execution.resolved()
            stats = ExecutionStats(query_name=query.name, mode=mode.value)
            prep = prepare(stats, snapshot)
        stats.op_stats.extend(
            OpStats(index=index, kind=op.kind, detail=op.describe())
            for index, op in enumerate(prep.physical.ops)
        )
        return ExplainResult(
            query=query,
            mode=mode,
            plan=prep.plan,
            physical_plan=prep.physical,
            stats=stats,
            join_tree=prep.join_tree,
            schedule=prep.schedule,
            execution_config=config,
        )

    def sql(
        self,
        text: str,
        mode: ExecutionMode = ExecutionMode.RPT,
        plan: Optional[JoinPlan] = None,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        """Compile and run one SQL statement.

        The statement is parsed, its tables pinned, and it is bound against
        that snapshot and lowered to a :class:`~repro.query.QuerySpec`
        (front-end failures raise :class:`~repro.errors.SqlError` with caret
        diagnostics), then executed on the same snapshot exactly like
        :meth:`execute` — returning a :class:`QueryResult`.  An ``EXPLAIN
        SELECT ...`` statement is planned but not executed, returning an
        :class:`ExplainResult`; an ``EXPLAIN ANALYZE SELECT ...`` statement
        is executed with tracing forced on and returns an
        :class:`ExplainAnalyzeResult` whose ``render()`` annotates the plan
        with actual rows and timings.

        ``name`` overrides the query name; otherwise a ``-- name:`` comment
        directive in the text is used.
        """
        return self._sql(text, mode, plan, options, name, explain_only=False)

    def explain_sql(
        self,
        text: str,
        mode: ExecutionMode = ExecutionMode.RPT,
        plan: Optional[JoinPlan] = None,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ) -> ExplainResult:
        """EXPLAIN one SQL statement (with or without a leading ``EXPLAIN``)."""
        return self._sql(text, mode, plan, options, name, explain_only=True)

    def _sql(self, text, mode, plan, options, name, explain_only: bool):
        self._ensure_open()
        options = options or ExecutionOptions()
        statement, snapshot = pin_statement(text, name, self.catalog)
        if explain_only:
            statement = replace(statement, explain=True, analyze=False)
        try:
            return self._answer(
                statement, mode, options, snapshot,
                lambda stats, pinned: self._prepare(
                    statement.query, mode, plan, options, stats, pinned
                ),
            )
        finally:
            snapshot.release()

    def _answer(
        self,
        statement: Statement,
        mode: ExecutionMode,
        options: ExecutionOptions,
        snapshot: CatalogSnapshot,
        prepare: _Prepare,
    ):
        """Answer a pinned statement — the one dispatcher of ``Database.sql``
        and the server: ``EXPLAIN`` plans it through ``prepare``, ``EXPLAIN
        ANALYZE`` executes it traced, anything else executes it."""
        query = statement.query
        if statement.analyze:
            options = replace(options, execution=replace(options.execution, tracing=True))
            return ExplainAnalyzeResult(**vars(self._execute(query, mode, options, snapshot, prepare)))
        if statement.explain:
            return self._explain(query, mode, options, snapshot, prepare)
        return self._execute(query, mode, options, snapshot, prepare)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(
        self,
        query: QuerySpec,
        mode: ExecutionMode,
        plan: Optional[JoinPlan],
        options: ExecutionOptions,
        stats: ExecutionStats,
        catalog: Optional[Any] = None,
    ) -> _PreparedExecution:
        """The shared planning front half of :meth:`execute` / :meth:`explain`.

        ``catalog`` is the pinned snapshot the run plans against (defaults
        to the live catalog for direct callers).
        """
        catalog = catalog if catalog is not None else self.catalog
        if not query.is_connected() and len(query.relations) > 1:
            raise PlanError(
                f"query {query.name!r} has a disconnected join graph; "
                "connect it or execute each component separately"
            )

        start = time.perf_counter()
        masks = self.filter_masks(query, catalog=catalog)
        stats.timings.scan_filter += time.perf_counter() - start
        graph = self.join_graph(query, masks=masks, catalog=catalog)

        join_tree: Optional[JoinTree] = None
        schedule: Optional[TransferSchedule] = None
        if mode.uses_transfer_phase:
            join_tree, schedule = self._build_schedule(mode, graph)

        if plan is None:
            # On a fully reduced α-acyclic instance every root-first walk of
            # the join tree is a safe-subjoin order: no estimate, no search.
            if join_tree is not None and len(graph.aliases) > 1 and is_alpha_acyclic(graph):
                plan = JoinPlan.from_left_deep(join_tree.aligned_join_order())
            else:
                plan = self.optimizer_plan(query, graph=graph, catalog=catalog)
        validate_plan_for_query(plan, query.aliases)

        if schedule is not None and options.skip_backward_if_aligned and self._order_aligned(plan, join_tree):
            schedule = schedule.without_backward_pass()

        physical = compile_execution(
            query,
            mode,
            plan,
            graph,
            tables={ref.alias: catalog.table(ref.table) for ref in query.relations},
            schedule=schedule,
        )
        return _PreparedExecution(
            plan=plan,
            graph=graph,
            join_tree=join_tree,
            schedule=schedule,
            masks=masks,
            physical=physical,
        )

    def _build_schedule(
        self, mode: ExecutionMode, graph: JoinGraph
    ) -> tuple[Optional[JoinTree], TransferSchedule]:
        if mode in (ExecutionMode.RPT, ExecutionMode.YANNAKAKIS):
            tree = largest_root(graph)
            return tree, schedule_from_tree(tree)
        if mode is ExecutionMode.PT:
            transfer_graph = small2large(graph)
            return None, schedule_from_transfer_graph(transfer_graph)
        raise PlanError(f"mode {mode} does not use a transfer phase")

    def _order_aligned(self, plan: JoinPlan, tree: Optional[JoinTree]) -> bool:
        """True when a left-deep plan joins relations top-down along the join tree."""
        if tree is None or not plan.is_left_deep():
            return False
        return plan.left_deep_order() == tree.aligned_join_order()
