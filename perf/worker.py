"""One workload, in this process: set-up -> cold round -> timed rounds
(tracing off) -> optionally the traced pass.  ``perf/run.py`` starts this in
a subprocess per workload so that peak RSS, lazy caches and the hash seed
belong to the workload alone.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import ExecutionMode

from perf import probes
from perf.catalog import END_TO_END_UNITS, PER_LAYER_UNITS
from perf.measure import (
    aggregates_agree,
    geomean,
    percentile,
    percentile_supported,
    quartiles,
)
from perf.trace import Recorder
from perf.workloads import WORKLOADS, Checker, RoundResult, State, Workload

PERF_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = PERF_DIR / "expected"
OUT_DIR = PERF_DIR / "out"

#: Set-up is repeated at least this often, and until this much time has
#: been spent on it (cheap set-ups need more repeats for a steady median).
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_SECONDS = 1.0


def _round_rng(seed: int, workload: str, index: int) -> random.Random:
    # A string seed goes through SHA-512: the same on every interpreter.
    return random.Random(f"{seed}/{workload}/{index}")


def set_up(workload: Workload, quick: bool, repeats: bool):
    """Set up (several times when ``repeats``); returns the last state and
    the seconds each set-up took."""
    seconds: List[float] = []
    state: Optional[State] = None
    while True:
        if state is not None:
            state.close()
            state = None
            gc.collect()
        begin = time.perf_counter()
        state = workload.setup(quick)
        seconds.append(time.perf_counter() - begin)
        enough = len(seconds) >= MIN_SETUPS and sum(seconds) >= SETUP_SECONDS
        if not repeats or enough or len(seconds) >= MAX_SETUPS:
            return state, seconds


def op_medians(rounds: List[RoundResult]) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {}
    for result in rounds:
        for op_id, ms in result.latencies:
            samples.setdefault(op_id, []).append(ms)
    return {op_id: statistics.median(values) for op_id, values in samples.items()}


def end_to_end_metrics(
    workload: Workload, state: State, setups: List[float], cold: RoundResult,
    rounds: List[RoundResult], rss_mb: float,
) -> Dict[str, dict]:
    pooled = [ms for result in rounds for _, ms in result.latencies]
    if not pooled:
        raise RuntimeError(f"{workload.name}: no read op succeeded in the timed rounds")
    # Latency percentiles are taken over the ops' typical (median over
    # rounds) latencies, not over the pooled samples: the op mix has cliffs
    # (job_plan: six ~170 ms plans right beyond the 90th percentile), and on a
    # cliff a pooled percentile jumps with every burst of machine noise.
    medians = op_medians(rounds)
    typical = list(medians.values())
    worst = []
    for op_ids in workload.worst_order_groups(state).values():
        tried = [medians[op_id] for op_id in op_ids if op_id in medians]
        if tried:
            worst.append(max(tried))
    rates = quartiles([result.reads / result.wall for result in rounds])
    values = {
        "setup_s": {"value": statistics.median(setups), "n": len(setups)},
        "cold_sweep_s": {"value": cold.wall, "n": 1},
        "queries_per_s": {"value": rates["median"], "q1": rates["q1"], "q3": rates["q3"],
                          "n": rates["n"]},
        "query_p50_ms": {"value": percentile(typical, 50), "n": len(pooled), "ops": len(typical)},
        "query_p90_ms": {"value": percentile(typical, 90), "n": len(pooled), "ops": len(typical),
                         "supported": percentile_supported(len(pooled), 90)},
        "worst_order_ms": {"value": geomean(worst), "n": len(worst)},
        "peak_rss_mb": {"value": rss_mb, "n": 1},
    }
    for name, entry in values.items():
        entry["unit"] = END_TO_END_UNITS[name]
    return values


def check_goldens(workload: Workload, checker: Checker, write: bool) -> List[str]:
    """Compare the agreed aggregates with ``perf/expected/<workload>.json``."""
    path = EXPECTED_DIR / f"{workload.name}.json"
    if write:
        path.parent.mkdir(exist_ok=True)
        document = {"scale": workload.scale, "aggregates": checker.reference}
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        return []
    if not path.is_file():
        return [f"no goldens at {path.name}; run with --write-expected"]
    expected = json.loads(path.read_text())["aggregates"]
    problems = [
        f"{query}: got {checker.reference.get(query)}, golden {row}"
        for query, row in expected.items()
        if query not in checker.reference or not aggregates_agree(row, checker.reference[query])
    ]
    problems += [f"{query}: not in goldens" for query in checker.reference if query not in expected]
    return problems


def traced_pass(
    workload: Workload, state: State, seed: int, checker: Checker,
    medians: Dict[str, float], rounds_run: int,
) -> dict:
    """The per-layer metrics (see ``perf/probes.py``) and the trace file."""
    layers = probes.Layers()
    recorder = Recorder()
    replay = probes.StagedReplay(state, recorder)
    attempted = 0
    failures: List[str] = []

    ops = [op for op in state.ops if op.id in medians]
    untraced_ms = sum(medians[op.id] for op in ops)
    for op in ops:
        replay.replay(op)
    attempted += len(ops)
    failures += replay.failures
    probes.staged_metrics(replay, layers, untraced_ms)

    rpt_ops = [op for op in ops if op.mode is ExecutionMode.RPT]
    layers.probe(["engine.facade_self_ms"], lambda: probes.facade_self_ms(state, rpt_ops))
    layers.probe(["obs.trace_overhead_share"], lambda: probes.trace_overhead(state, rpt_ops))
    layers.probe(
        ["bloom.insert_mkeys_per_s", "bloom.probe_mkeys_per_s", "bloom.fpr_observed"],
        lambda: probes.bloom_probe(seed),
    )
    layers.probe(
        ["exec.hash_build_mkeys_per_s", "exec.hash_probe_mkeys_per_s", "exec.semi_join_mkeys_per_s"],
        lambda: probes.hash_probe(seed),
    )
    if workload.name == "tpch_exec":
        probes.backend_sweeps(state, layers)
    if state.servers:
        # Façade only (Server.stats), and a round whose ops count: not soft.
        metrics, result = probes.serving_probes(
            workload, state, _round_rng(seed, workload.name, rounds_run + 1), checker
        )
        attempted += result.attempted
        failures += result.failures
        for name, value in metrics.items():
            layers.set(name, value)
        layers.probe(["engine.session_overhead_ms"], lambda: probes.session_overhead(state))
    layers.probe(
        ["storage.register_ms", "storage.replace_ms", "storage.snapshot_ms", "storage.bytes_resident"],
        lambda: probes.storage_probes(state),
    )
    layers.set("workloads.generate_s", state.generate_seconds)
    probes.paper_metrics(ops, medians, replay.tuples, layers)
    layers.skip(list(PER_LAYER_UNITS), "not defined on this workload")

    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"trace_{workload.name}.json")
    return {
        "metrics": {
            name: {"value": layers.values[name], "unit": PER_LAYER_UNITS[name],
                   **({"reason": layers.reasons[name]} if layers.values[name] is None else {})}
            for name in PER_LAYER_UNITS
        },
        "attempted": attempted,
        "failures": failures,
        "spans": len(recorder.spans),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, end_to_end: bool,
    quick: bool = False, write_expected: bool = False,
) -> dict:
    """Run one workload and return its result document."""
    workload = WORKLOADS[name]()
    state, setups = set_up(workload, quick, repeats=end_to_end)
    try:
        checker = Checker()
        cold = workload.round(state, _round_rng(seed, name, 0), checker)
        rounds: List[RoundResult] = []
        begin = time.perf_counter()
        while True:
            rounds.append(workload.round(state, _round_rng(seed, name, len(rounds) + 1), checker))
            if quick or time.perf_counter() - begin >= seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = cold.attempted + sum(result.attempted for result in rounds)
        failures = cold.failures + [f for result in rounds for f in result.failures]
        document = {
            "workload": name,
            "why": workload.why,
            "scale": workload.effective_scale(quick),
            "seed": seed,
            "rounds": len(rounds),
            "round_seconds": [result.wall for result in rounds],
            "setups": setups,
        }
        if end_to_end:
            document["end_to_end"] = end_to_end_metrics(workload, state, setups, cold, rounds, rss_mb)
        if trace:
            traced = traced_pass(workload, state, seed, checker, op_medians(rounds), len(rounds))
            document["per_layer"] = traced["metrics"]
            document["trace_spans"] = traced["spans"]
            attempted += traced["attempted"]
            failures += traced["failures"]
        golden_problems = [] if quick else check_goldens(workload, checker, write_expected)
        failures += golden_problems
    finally:
        state.close()
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    document.update(
        attempted=attempted,
        failed=min(len(failures), attempted),
        correct=not failures,
        failures=failures[:20],
    )
    return document
