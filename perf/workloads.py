"""The four benchmark workloads: what each sets up, and what one round runs.

Only the engine's stable façade is used here (``Database.sql/execute``,
``ExecutionMode``, ``Server/Session``, ``workloads.*.load``,
``sqlfiles.sql_text``, ``generate_left_deep_plans``), always with the
default ``ExecutionOptions()`` — no engine knob is a benchmark dimension.

**What ``--seed`` does.**  The generated tables and the sampled join orders
are part of each workload's *definition* (``DATA_SEED`` / ``PLAN_SEED``
below), exactly like a TPC scale factor: with the data seeded from the run
seed, eight seeds moved ``tpch_exec`` round time by 17 %, ``job_plan`` p90
by 38 % (the join-order search prunes on cardinalities) and
``job_random_orders`` round time by 33–69 % (one catastrophic baseline order
more or less).  A regression bound of 10 % cannot be read against that.  The
run seed therefore draws what does not change the amount of work: the order
ops execute in each round, which client issues which statement when, and
the key sets of the kernel probes.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import AdmissionRejected, Database, ExecutionMode, Server
from repro.optimizer.random_plans import generate_left_deep_plans
from repro.workloads import job, sqlfiles, tpch

from perf.measure import aggregates_agree

#: Seeds of the generated tables and of the random-plan sample (see above).
DATA_SEED = 1
PLAN_SEED = 1

#: α-acyclic JOB templates with at most 8 relations; chosen so one round of
#: 8 plans x {baseline, rpt} takes 3-4 s at scale 10 and the baseline's
#: worst order is 3-12x its best (3a and 5a are the blow-ups).
RANDOM_ORDER_TEMPLATES = (2, 3, 4, 5, 7, 11, 12, 14)
PLANS_PER_QUERY = 8

#: serve_mixed: client 0 replaces a small dimension after every this many of
#: its statements (2 writes per round of 53 statements per client).
WRITE_EVERY = 25
WRITE_TABLE = "nation"


@dataclass(frozen=True)
class Op:
    """One statement/query execution the benchmark times and checks."""

    id: str
    #: Agreement group: every op of one query must return the same aggregates.
    query: str
    mode: ExecutionMode
    #: Which database of the workload state the op runs against.
    db: str
    #: SQL text (run through ``Database.sql``) ...
    text: Optional[str] = None
    #: ... or a spec with an explicit plan (``Database.execute(plan=...)``).
    spec: object = None
    plan: object = None


@dataclass
class State:
    """What one set-up leaves behind for the rounds."""

    dbs: Dict[str, Database]
    ops: List[Op]
    servers: Dict[str, Server] = field(default_factory=dict)
    generate_seconds: float = 0.0

    def close(self) -> None:
        for server in self.servers.values():
            server.close()
        for db in self.dbs.values():
            db.close()


@dataclass
class RoundResult:
    wall: float
    #: ``(op id, latency in ms)`` of every *read* op that returned.
    latencies: List[Tuple[str, float]]
    attempted: int
    failures: List[str]

    @property
    def reads(self) -> int:
        return len(self.latencies)


class Checker:
    """Cross-checks results: every op of a query agrees with the first one
    seen (across modes, plans, rounds, clients).  Thread-safe."""

    def __init__(self) -> None:
        self.reference: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    def check(self, op: Op, aggregates: Dict[str, float]) -> Optional[str]:
        row = {name: float(value) for name, value in aggregates.items()}
        with self._lock:
            reference = self.reference.setdefault(op.query, row)
        if aggregates_agree(reference, row):
            return None
        return f"{op.id}: aggregates {row} disagree with {reference}"


def execute_op(state: State, op: Op):
    db = state.dbs[op.db]
    if op.text is not None:
        return db.sql(op.text, mode=op.mode)
    return db.execute(op.spec, mode=op.mode, plan=op.plan)


def timed_op(
    op: Op, call: Callable[[], object], checker: Checker,
    latencies: List[Tuple[str, float]], failures: List[str],
) -> None:
    """Time one read op and check its result: a latency sample when it
    returned the agreed aggregates, a failure message otherwise."""
    begin = time.perf_counter()
    try:
        result = call()
    except AdmissionRejected as error:
        failures.append(f"{op.id}: refused ({error.reason})")
        return
    except Exception as error:  # boundary: a failed op is counted, not fatal
        failures.append(f"{op.id}: {type(error).__name__}: {error}")
        return
    elapsed = time.perf_counter() - begin
    mismatch = checker.check(op, result.aggregates)
    if mismatch:
        failures.append(mismatch)
    else:
        latencies.append((op.id, elapsed * 1e3))


class Workload:
    """A named workload; subclasses define ``setup`` (and ``round`` when the
    round is not a single-threaded sweep over ``state.ops``)."""

    name = ""
    why = ""
    scale = 1.0

    def effective_scale(self, quick: bool) -> float:
        return self.scale / 10 if quick else self.scale

    def setup(self, quick: bool) -> State:
        raise NotImplementedError

    def round(self, state: State, rng: random.Random, checker: Checker) -> RoundResult:
        """One closed sweep: every op once, in the order ``rng`` draws."""
        ops = list(state.ops)
        rng.shuffle(ops)
        latencies: List[Tuple[str, float]] = []
        failures: List[str] = []
        started = time.perf_counter()
        for op in ops:
            timed_op(op, lambda: execute_op(state, op), checker, latencies, failures)
        wall = time.perf_counter() - started
        return RoundResult(wall, latencies, len(ops), failures)

    def worst_order_groups(self, state: State) -> Dict[str, List[str]]:
        """Query -> ids of its RPT ops (one per tried plan); ``worst_order_ms``
        is the geomean over queries of the slowest of them."""
        groups: Dict[str, List[str]] = {}
        for op in state.ops:
            if op.mode is ExecutionMode.RPT:
                groups.setdefault(op.query, []).append(op.id)
        return groups


def _sql_ops(db_key: str, stems: Sequence[str], modes: Sequence[ExecutionMode]) -> List[Op]:
    return [
        Op(id=f"{stem}/{mode.value}", query=stem, mode=mode, db=db_key,
           text=sqlfiles.sql_text(stem))
        for stem in stems
        for mode in modes
    ]


def _timed_load(loader: Callable, db: Database, scale: float) -> float:
    begin = time.perf_counter()
    loader(db, scale=scale, seed=DATA_SEED)
    return time.perf_counter() - begin


class TpchExec(Workload):
    name = "tpch_exec"
    why = ("20 TPC-H .sql files x all 5 modes at scale 10, optimizer's plan: "
           "execution-bound (transfer + join > 70 % of wall), so bloom/exec/expr kernel work shows here")
    scale = 10.0

    def setup(self, quick: bool) -> State:
        db = Database()
        seconds = _timed_load(tpch.load, db, self.effective_scale(quick))
        ops = _sql_ops("tpch", sqlfiles.stems_for("tpch"), list(ExecutionMode))
        return State({"tpch": db}, ops, generate_seconds=seconds)


class JobPlan(Workload):
    name = "job_plan"
    why = ("33 JOB .sql files x {baseline, rpt} at scale 0.2: planning-bound (join-order DP > 50 % of wall), "
           "so optimizer/core/sql/plan work shows here and a kernel change must show no change")
    scale = 0.2

    def setup(self, quick: bool) -> State:
        db = Database()
        seconds = _timed_load(job.load, db, self.effective_scale(quick))
        ops = _sql_ops("job", sqlfiles.stems_for("job"),
                       [ExecutionMode.BASELINE, ExecutionMode.RPT])
        return State({"job": db}, ops, generate_seconds=seconds)


class JobRandomOrders(Workload):
    name = "job_random_orders"
    why = ("8 acyclic JOB templates x 8 random left-deep orders x {baseline, rpt} at scale 10 via execute(plan=...): "
           "optimizer and SQL bypassed; the paper's robustness claim (Table 1 / Fig. 6) in wall-clock")
    scale = 10.0

    def setup(self, quick: bool) -> State:
        db = Database()
        seconds = _timed_load(job.load, db, self.effective_scale(quick))
        ops: List[Op] = []
        for number in RANDOM_ORDER_TEMPLATES:
            spec = job.query(number)
            plans = generate_left_deep_plans(
                db.join_graph(spec), PLANS_PER_QUERY, seed=PLAN_SEED * 1000 + number
            )
            for index, plan in enumerate(plans):
                for mode in (ExecutionMode.BASELINE, ExecutionMode.RPT):
                    ops.append(Op(id=f"{spec.name}/plan{index}/{mode.value}", query=spec.name,
                                  mode=mode, db="job", spec=spec, plan=plan))
        return State({"job": db}, ops, generate_seconds=seconds)


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("closed loop: nproc-1 (>= 1) clients, own Sessions on one Server per database (TPC-H + JOB, scale 4, RPT, plan cache), "
           "each runs all 53 files a round in its own order, table replaces: the engine layer")
    scale = 4.0

    def __init__(self) -> None:
        # One core stays free: on the shared 2-core sandbox a neighbour's
        # burst leaves about one core, which slowed two busy client threads
        # by 40 % for minutes but a single one by 10-15 %.
        self.clients = max(1, (os.cpu_count() or 1) - 1)

    def setup(self, quick: bool) -> State:
        scale = self.effective_scale(quick)
        dbs = {"tpch": Database(), "job": Database()}
        seconds = _timed_load(tpch.load, dbs["tpch"], scale)
        seconds += _timed_load(job.load, dbs["job"], scale)
        ops = _sql_ops("tpch", sqlfiles.stems_for("tpch"), [ExecutionMode.RPT])
        ops += _sql_ops("job", sqlfiles.stems_for("job"), [ExecutionMode.RPT])
        servers = {key: Server(db, mode=ExecutionMode.RPT) for key, db in dbs.items()}
        return State(dbs, ops, servers=servers, generate_seconds=seconds)

    def round(self, state: State, rng: random.Random, checker: Checker) -> RoundResult:
        """Every client issues every statement once, in its own seeded order,
        waiting for each reply; client 0 also replaces ``WRITE_TABLE`` with an
        identical copy every ``WRITE_EVERY`` statements."""
        orders = []
        for _ in range(self.clients):
            order = list(state.ops)
            rng.shuffle(order)
            orders.append(order)
        latencies: List[List[Tuple[str, float]]] = [[] for _ in orders]
        failures: List[List[str]] = [[] for _ in orders]
        writes = [0] * len(orders)
        barrier = threading.Barrier(len(orders) + 1)

        # Sessions are opened here so a client thread cannot die before the
        # start barrier.
        all_sessions = [
            {key: server.session(name=f"client-{index}")
             for key, server in state.servers.items()}
            for index in range(len(orders))
        ]

        def client(index: int) -> None:
            sessions = all_sessions[index]
            barrier.wait()
            try:
                for position, op in enumerate(orders[index]):
                    if index == 0 and position % WRITE_EVERY == WRITE_EVERY - 1:
                        writes[index] += 1
                        try:
                            replace_table(state.dbs["tpch"], WRITE_TABLE)
                        except Exception as error:  # boundary: counted, not fatal
                            failures[index].append(f"replace {WRITE_TABLE}: {error}")
                    timed_op(op, lambda: sessions[op.db].sql(op.text), checker,
                             latencies[index], failures[index])
            finally:
                for session in sessions.values():
                    session.close()

        threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
                   for i in range(len(orders))]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return RoundResult(
            wall,
            [sample for per_client in latencies for sample in per_client],
            sum(len(order) for order in orders) + sum(writes),
            [message for per_client in failures for message in per_client],
        )


def replace_table(db: Database, name: str) -> None:
    """Replace ``name`` with a freshly materialised identical copy (a new
    catalog version with the same rows, so results must not change)."""
    table = db.table(name)
    db.register_table(table.take(np.arange(table.num_rows)), replace=True)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (TpchExec, JobPlan, JobRandomOrders, ServeMixed)
}
