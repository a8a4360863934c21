"""The traced pass: per-layer metrics, measured from outside the program.

Every op of one round is replayed in stages around the public function of
each layer — ``tokenize -> parse_statement -> bind_select -> lower_select ->
filter_masks -> join_graph -> largest_root/schedule_from_tree ->
optimizer_plan -> compile_execution -> execute(plan=...)`` — each stage a
child span of the op span (``perf/trace.py``).  The last stage runs with the
engine's own tracing on and its span tree is grafted under the stage, which
is where the phase and physical-op times come from.

Probes fail soft: a stage whose import or call raises is dropped for the
rest of the pass and its metrics are reported as ``None`` with a one-line
reason, so moving engine internals cannot break an end-to-end run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import ExecutionConfig, ExecutionMode, ExecutionOptions

from perf.measure import geomean
from perf.trace import Recorder
from perf.workloads import Op, State, replace_table

KERNEL_KEYS = 1_000_000
KERNEL_REPEATS = 3


class Layers:
    """Per-layer metric values; ``None`` plus a reason when a probe failed
    or the metric is undefined on this workload."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def skip(self, names: Sequence[str], reason: str) -> None:
        for name in names:
            self.values.setdefault(name, None)
            self.reasons.setdefault(name, reason)

    def probe(self, names: Sequence[str], fn: Callable[[], Dict[str, float]]) -> None:
        """Run one probe; on any failure its metrics become ``None``."""
        try:
            for name, value in fn().items():
                self.set(name, value)
        except Exception as error:  # boundary: a probe never fails the run
            self.skip(names, _reason(error))
        self.skip(names, "probe did not report this metric")


def _reason(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}".splitlines()[0][:200]


def _resolve(path: str):
    module, _, attribute = path.partition(":")
    return getattr(importlib.import_module(module), attribute)


# ---------------------------------------------------------------------------
# Staged replay
# ---------------------------------------------------------------------------
#: Stage -> where its layer function lives today (resolved lazily, soft).
STAGE_FUNCTIONS = {
    "sql.lex": "repro.sql:tokenize",
    "sql.parse": "repro.sql:parse_statement",
    "sql.bind": "repro.sql:bind_select",
    "sql.lower": "repro.sql:lower_select",
    "core.largest_root": "repro.core:largest_root",
    "core.schedule": "repro.core:schedule_from_tree",
    "core.small2large": "repro.core:small2large",
    "core.schedule_pt": "repro.core:schedule_from_transfer_graph",
    "core.acyclic": "repro.core:is_alpha_acyclic",
    "core.safe_order_check": "repro.core:is_safe_join_order",
    "plan.compile": "repro.plan.physical:compile_execution",
}

TRACED = ExecutionOptions(execution=ExecutionConfig(tracing=True))


class StagedReplay:
    def __init__(self, state: State, recorder: Recorder) -> None:
        self.state = state
        self.recorder = recorder
        self.broken: Dict[str, str] = {}
        self.functions: Dict[str, Callable] = {}
        for stage, path in STAGE_FUNCTIONS.items():
            try:
                self.functions[stage] = _resolve(path)
            except Exception as error:  # boundary: soft-fail probe
                self.broken[stage] = _reason(error)
        #: op id -> tuples processed, from the traced executions (deterministic).
        self.tuples: Dict[str, int] = {}
        self.failures: List[str] = []

    def _stage(self, key: str, fn: Callable):
        """Run ``fn(span)`` under a span; a failure drops the stage for good."""
        if key in self.broken:
            return None
        layer, _, name = key.partition(".")
        try:
            with self.recorder.span(layer, name) as span:
                out = fn(span)
        except Exception as error:  # boundary: soft-fail probe
            self.broken[key] = _reason(error)
            return None
        return out

    def _call(self, key: str, *args, count: Optional[str] = None):
        """Stage ``key`` = one call of its layer function; ``count`` names a
        span count to fill with the length of what it returned."""
        if key not in self.functions:
            return None

        def run(span):
            out = self.functions[key](*args)
            if count is not None:
                span.counts[count] = len(out)
            return out

        return self._stage(key, run)

    def replay(self, op: Op) -> None:
        db = self.state.dbs[op.db]
        with self.recorder.span("engine", "op", op=op.id):
            query = op.spec
            if op.text is not None:
                query = self._front_end(db, op.text)
            masks = self._stage("expr.filter", lambda span: _filter_masks(db, query, span))
            graph = self._stage("core.join_graph", lambda span: _join_graph(db, query, masks, span))
            if graph is None:  # façade call: needed by every later stage
                graph = db.join_graph(query)
            schedule = self._schedule(op.mode, graph)
            plan = op.plan
            if plan is None:
                plan = self._stage(
                    "optimizer.plan", lambda span: db.optimizer_plan(query, graph=graph)
                )
            if plan is not None and plan.is_left_deep():
                if self._call("core.acyclic", graph):
                    self._call("core.safe_order_check", graph, plan.left_deep_order())
            if plan is not None:
                self._stage(
                    "plan.compile",
                    lambda span: _compile(self.functions, db, query, op.mode, plan, graph, schedule, span),
                )
            self._execute(db, op, query, plan)

    def _front_end(self, db, text: str):
        self._call("sql.lex", text, count="tokens")
        statement = self._call("sql.parse", text)
        bound = None
        if statement is not None:
            bound = self._call("sql.bind", statement, db.catalog, text)
        query = None
        if bound is not None:
            query = self._call("sql.lower", bound, text)
        if query is None:  # a front-end stage is gone: use the façade, untimed
            from repro.sql import compile_statement

            query = compile_statement(text, db.catalog).query
        return query

    def _schedule(self, mode: ExecutionMode, graph):
        if mode in (ExecutionMode.RPT, ExecutionMode.YANNAKAKIS):
            tree = self._call("core.largest_root", graph)
            return None if tree is None else self._call("core.schedule", tree)
        if mode is ExecutionMode.PT:
            transfer_graph = self._call("core.small2large", graph)
            if transfer_graph is None:
                return None
            return self._call("core.schedule_pt", transfer_graph)
        return None

    def _execute(self, db, op: Op, query, plan) -> None:
        try:
            with self.recorder.span("exec", "execute") as span:
                result = db.execute(query, mode=op.mode, plan=plan, options=TRACED)
                stats = result.stats
                span.counts.update(
                    tuples_processed=stats.total_tuples_processed,
                    intermediate_rows=stats.total_intermediate_rows,
                    transfer_rows_eliminated=stats.total_transfer_rows_eliminated,
                )
                if result.trace is not None:
                    self.recorder.graft(result.trace)
            self.tuples[op.id] = stats.total_tuples_processed
        except Exception as error:  # boundary: counted as a failed op
            self.failures.append(f"{op.id} (traced): {_reason(error)}")


def _filter_masks(db, query, span):
    masks = db.filter_masks(query)
    span.counts["rows_scanned"] = sum(int(mask.shape[0]) for mask in masks.values())
    span.counts["rows_kept"] = sum(int(mask.sum()) for mask in masks.values())
    return masks


def _join_graph(db, query, masks, span):
    graph = db.join_graph(query, masks=masks)
    span.counts["relations"] = len(query.relations)
    span.counts["edges"] = len(query.joins)
    return graph


def _compile(functions, db, query, mode, plan, graph, schedule, span):
    physical = functions["plan.compile"](
        query, mode, plan, graph,
        tables={ref.alias: db.table(ref.table) for ref in query.relations},
        schedule=schedule,
    )
    span.counts["ops"] = len(physical.ops)
    return physical


def staged_metrics(
    replay: StagedReplay, layers: Layers, untraced_op_wall_ms: float
) -> None:
    """Fold the recorder's totals into the named per-layer metrics."""
    totals = replay.recorder.totals()

    def ms(layer: str, name: str) -> float:
        return totals.get((layer, name), {}).get("seconds", 0.0) * 1e3

    def count(layer: str, name: str, key: str) -> float:
        return totals.get((layer, name), {}).get(f"count.{key}", 0)

    def calls(layer: str, name: str) -> float:
        return totals.get((layer, name), {}).get("calls", 0)

    stage_metrics = {
        "sql.lex": {"sql.lex_ms": ms("sql", "lex"), "sql.tokens": count("sql", "lex", "tokens")},
        "sql.parse": {"sql.parse_ms": ms("sql", "parse"), "sql.statements": calls("sql", "parse")},
        "sql.bind": {"sql.bind_ms": ms("sql", "bind")},
        "sql.lower": {"sql.lower_ms": ms("sql", "lower")},
        "expr.filter": {
            "expr.filter_ms": ms("expr", "filter"),
            "expr.rows_scanned": count("expr", "filter", "rows_scanned"),
            "expr.rows_kept": count("expr", "filter", "rows_kept"),
        },
        "core.join_graph": {
            "core.join_graph_ms": ms("core", "join_graph"),
            "core.relations": count("core", "join_graph", "relations"),
            "core.edges": count("core", "join_graph", "edges"),
        },
        "core.largest_root": {"core.largest_root_ms": ms("core", "largest_root")},
        "core.schedule": {"core.schedule_ms": ms("core", "schedule") + ms("core", "schedule_pt")
                          + ms("core", "small2large")},
        "core.safe_order_check": {"core.safe_order_check_ms": ms("core", "safe_order_check")},
        "optimizer.plan": {
            "optimizer.plan_ms": ms("optimizer", "plan"),
            "optimizer.plan_ms_max": totals.get(("optimizer", "plan"), {}).get("max_seconds", 0.0) * 1e3,
            "optimizer.share": ms("optimizer", "plan") / untraced_op_wall_ms,
        },
        "plan.compile": {"plan.compile_ms": ms("plan", "compile"), "plan.ops": count("plan", "compile", "ops")},
    }
    for stage, metrics in stage_metrics.items():
        if stage in replay.broken:
            layers.skip(list(metrics), replay.broken[stage])
        else:
            for name, value in metrics.items():
                layers.set(name, value)

    probed = sum(
        count("exec", f"op.{kind}", "rows_in") for kind in ("bloom_probe", "semi_join")
    )
    eliminated = count("exec", "execute", "transfer_rows_eliminated")
    layers.set("exec.execute_ms", ms("exec", "execute"))
    layers.set("exec.plan_phase_ms", ms("exec", "phase.plan"))
    for phase in ("scan_filter", "transfer", "join", "aggregate"):
        layers.set(f"exec.{phase}_ms", ms("exec", f"phase.{phase}"))
    for kind in ("bloom_build", "bloom_probe", "hash_build", "hash_probe", "semi_join"):
        layers.set(f"exec.op.{kind}_ms", ms("exec", f"op.{kind}"))
    layers.set("exec.tuples_processed", count("exec", "execute", "tuples_processed"))
    layers.set("exec.intermediate_rows", count("exec", "execute", "intermediate_rows"))
    layers.set("exec.transfer_rows_eliminated", eliminated)
    layers.set("exec.transfer_yield", eliminated / probed if probed else 0.0)
    layers.set("engine.replay_ratio", ms("engine", "op") / untraced_op_wall_ms)


def facade_self_ms(state: State, ops: Sequence[Op]) -> Dict[str, float]:
    """``Database.sql`` wall minus what it delegates to: the SQL front end
    (``compile_statement``) and the engine's own query span."""
    from repro.sql import compile_statement

    total = 0.0
    for op in ops:
        if op.text is None:
            continue
        db = state.dbs[op.db]
        begin = time.perf_counter()
        compile_statement(op.text, db.catalog)
        front_end = time.perf_counter() - begin
        begin = time.perf_counter()
        result = db.sql(op.text, mode=op.mode, options=TRACED)
        wall = time.perf_counter() - begin
        total += wall - front_end - result.trace.seconds
    return {"engine.facade_self_ms": total * 1e3}


def trace_overhead(state: State, ops: Sequence[Op]) -> Dict[str, float]:
    """Engine tracing cost: the same ops with tracing on vs off, alternating
    which goes first so drift cancels."""
    traced = untraced = 0.0
    for index, op in enumerate(ops):
        db = state.dbs[op.db]

        def run(options) -> float:
            begin = time.perf_counter()
            if op.text is not None:
                db.sql(op.text, mode=op.mode, options=options)
            else:
                db.execute(op.spec, mode=op.mode, plan=op.plan, options=options)
            return time.perf_counter() - begin

        if index % 2:
            traced += run(TRACED)
            untraced += run(None)
        else:
            untraced += run(None)
            traced += run(TRACED)
    return {"obs.trace_overhead_share": traced / untraced - 1.0}


# ---------------------------------------------------------------------------
# Kernel probes (seeded keys; median of a few repeats)
# ---------------------------------------------------------------------------
def _mkeys_per_s(fn: Callable[[], object], keys: int) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        begin = time.perf_counter()
        fn()
        times.append(time.perf_counter() - begin)
    return keys / statistics.median(times) / 1e6


def bloom_probe(seed: int) -> Dict[str, float]:
    BloomFilter = _resolve("repro.bloom:BloomFilter")
    rng = np.random.default_rng(seed)
    present = rng.integers(0, 1 << 40, KERNEL_KEYS, dtype=np.int64)
    absent = rng.integers(1 << 41, 1 << 42, KERNEL_KEYS, dtype=np.int64)

    def build():
        bloom = BloomFilter(expected_keys=KERNEL_KEYS)
        bloom.insert(present)
        return bloom

    insert_rate = _mkeys_per_s(build, KERNEL_KEYS)
    bloom = build()
    probe_rate = _mkeys_per_s(lambda: bloom.probe(present), KERNEL_KEYS)
    return {
        "bloom.insert_mkeys_per_s": insert_rate,
        "bloom.probe_mkeys_per_s": probe_rate,
        "bloom.fpr_observed": float(bloom.probe(absent).mean()),
    }


def hash_probe(seed: int) -> Dict[str, float]:
    kernels = importlib.import_module("repro.exec.kernels")
    rng = np.random.default_rng(seed + 1)
    build_keys = rng.integers(0, 1 << 40, KERNEL_KEYS // 4, dtype=np.int64)
    probe_keys = np.concatenate(
        [rng.choice(build_keys, KERNEL_KEYS // 2), rng.integers(1 << 41, 1 << 42, KERNEL_KEYS // 2)]
    )

    def build():
        index = kernels.HashIndex(build_keys)
        kernels.match_keys(build_keys[:1], index)  # the first match sorts the build side
        return index

    build_rate = _mkeys_per_s(build, build_keys.shape[0])
    index = build()
    probe_rate = _mkeys_per_s(lambda: kernels.match_keys(probe_keys, index), probe_keys.shape[0])
    semi_rate = _mkeys_per_s(
        lambda: kernels.semi_join_mask(probe_keys, build_keys), probe_keys.shape[0]
    )
    return {
        "exec.hash_build_mkeys_per_s": build_rate,
        "exec.hash_probe_mkeys_per_s": probe_rate,
        "exec.semi_join_mkeys_per_s": semi_rate,
    }


# ---------------------------------------------------------------------------
# Backends, storage, serving
# ---------------------------------------------------------------------------
BACKENDS = ("serial", "chunked", "parallel", "process")


def backend_sweeps(state: State, layers: Layers) -> None:
    """One RPT sweep of the workload's statements per backend, nproc workers."""
    workers = max(1, os.cpu_count() or 1)
    ops = [op for op in state.ops if op.mode is ExecutionMode.RPT and op.text is not None]
    for backend in BACKENDS:
        name = f"exec.backend.{backend}_s"

        def sweep() -> Dict[str, float]:
            options = ExecutionOptions(
                execution=ExecutionConfig(backend=backend, num_threads=workers, num_workers=workers)
            )
            begin = time.perf_counter()
            for op in ops:
                state.dbs[op.db].sql(op.text, mode=op.mode, options=options)
            return {name: time.perf_counter() - begin}

        layers.probe([name], sweep)
    try:
        _resolve("repro.exec.process:shutdown_workers")()
    except Exception:  # boundary: nothing to shut down if the backend moved
        pass


def storage_probes(state: State) -> Dict[str, float]:
    from repro import Database

    tables = [table for db in state.dbs.values() for table in db.catalog]
    fresh = Database()
    try:
        begin = time.perf_counter()
        for table in tables:
            fresh.register_table(table, replace=True)
        register = time.perf_counter() - begin
    finally:
        fresh.close()

    db = next(iter(state.dbs.values()))
    smallest = min(db.catalog, key=lambda table: table.num_rows).name
    replaces, snapshots = [], []
    names = [table.name for table in db.catalog]
    for _ in range(9):
        begin = time.perf_counter()
        replace_table(db, smallest)
        replaces.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        db.catalog.snapshot(names).release()
        snapshots.append(time.perf_counter() - begin)
    return {
        "storage.register_ms": register * 1e3,
        "storage.replace_ms": statistics.median(replaces) * 1e3,
        "storage.snapshot_ms": statistics.median(snapshots) * 1e3,
        "storage.bytes_resident": sum(table.memory_bytes() for table in tables),
    }


def serving_probes(workload, state: State, rng, checker) -> Tuple[Dict[str, float], object]:
    """One more closed-loop round, read through the servers' own counters."""

    def counters():
        out = {"hits": 0, "misses": 0, "rejected": 0, "wait": 0.0}
        for server in state.servers.values():
            stats = server.stats()
            out["hits"] += stats.plan_cache_hits
            out["misses"] += stats.plan_cache_misses
            out["rejected"] += stats.rejected
            out["wait"] += stats.metrics.get("repro_server_admission_wait_seconds_sum", 0.0)
        return out

    before = counters()
    result = workload.round(state, rng, checker)
    after = counters()
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["hits"] + delta["misses"]
    return {
        "engine.plan_cache_hit_rate": delta["hits"] / lookups if lookups else 0.0,
        # Every miss of a warm round is a statement re-planned because a
        # replace moved a table version under its cache key.
        "engine.plan_cache_invalidations": delta["misses"],
        "engine.admission_wait_ms": delta["wait"] * 1e3,
        "engine.rejected": delta["rejected"],
    }, result


def session_overhead(state: State) -> Dict[str, float]:
    """``Session.sql`` minus ``Database.sql`` per statement, one client:
    what admission, snapshot pinning and the plan-cache lookup cost (the
    cached plan's saving shows as a negative number)."""
    sessions = {key: server.session(name="probe") for key, server in state.servers.items()}
    deltas = []
    try:
        for op in state.ops:
            db = state.dbs[op.db]
            direct, served = [], []
            for _ in range(3):
                begin = time.perf_counter()
                db.sql(op.text, mode=op.mode)
                direct.append(time.perf_counter() - begin)
                begin = time.perf_counter()
                sessions[op.db].sql(op.text)
                served.append(time.perf_counter() - begin)
            deltas.append(statistics.median(served) - statistics.median(direct))
    finally:
        for session in sessions.values():
            session.close()
    return {"engine.session_overhead_ms": statistics.median(deltas) * 1e3}


# ---------------------------------------------------------------------------
# paper.*: robustness in wall-clock, from the untraced rounds
# ---------------------------------------------------------------------------
def paper_metrics(
    ops: Sequence[Op], op_ms: Dict[str, float], tuples: Dict[str, int], layers: Layers
) -> None:
    """Robustness factor = slowest / fastest plan of a query under one mode;
    speed-up = baseline / RPT latency of the same (query, plan)."""
    by_mode: Dict[ExecutionMode, Dict[str, List[Op]]] = {}
    for op in ops:
        by_mode.setdefault(op.mode, {}).setdefault(op.query, []).append(op)

    def factors(mode: ExecutionMode, values: Dict[str, float]) -> List[float]:
        out = []
        for query_ops in by_mode.get(mode, {}).values():
            observed = [values[op.id] for op in query_ops if values.get(op.id)]
            if len(query_ops) > 1 and len(observed) == len(query_ops):
                out.append(max(observed) / min(observed))
        return out

    for label, mode in (("rpt", ExecutionMode.RPT), ("baseline", ExecutionMode.BASELINE)):
        wall = factors(mode, op_ms)
        if wall:
            layers.set(f"paper.rf_{label}_max", max(wall))
            layers.set(f"paper.rf_{label}_geomean", geomean(wall))
        counted = factors(mode, tuples)
        if counted:
            layers.set(f"paper.rf_{label}_tuples_max", max(counted))

    rpt_ms = {op.id.rsplit("/", 1)[0]: op_ms.get(op.id) for op in ops if op.mode is ExecutionMode.RPT}
    speedups = []
    for op in ops:
        if op.mode is ExecutionMode.BASELINE:
            rpt = rpt_ms.get(op.id.rsplit("/", 1)[0])
            if rpt and op_ms.get(op.id):
                speedups.append(op_ms[op.id] / rpt)
    if speedups:
        layers.set("paper.rpt_speedup_geomean", geomean(speedups))
