"""Profile one round of a benchmark workload: where does the time go?

Run with::

    python examples/profile_round.py tpch_exec            # ~10 s
    python examples/profile_round.py job_random_orders --top 40
    python examples/profile_round.py tpch_exec --quick    # a tenth the data (smoke test)

This is the "cProfile of one ``tpch_exec`` round" that ROADMAP.md and the
issues keep quoting, as one command.  It uses the benchmark's own workload
definitions (``perf/workloads.py``, imported read-only) under the
benchmark's own environment (``PYTHONHASHSEED=0``, every ``REPRO_*``
variable scrubbed — the script re-executes itself once to get it), so a
profile describes exactly what ``perf/run.py`` times:

1. set-up, then two warm rounds (lazy caches filled, as after the
   benchmark's cold round);
2. one round under ``cProfile``;
3. the top ``N`` functions by *self* time, the profiled round's latency
   summed per execution mode, and its op time split per mode and op kind
   (hash joins by index kind, ``hash_build [direct]`` …) — summed from the
   engine's own per-op timers (``OpStats.seconds``), which cProfile does
   not inflate;
4. per mode, the latency spent outside engine ops: the summed latency
   minus the summed ``OpStats.seconds``, i.e. SQL front end, join-order
   planning, transfer scheduling and plan compilation;
5. per mode, a census of the profiled round's transfer steps by the filter
   the executor's one rule picked for each: §4.3-pruned, empty source (no
   filter, the target empties), exact, or Bloom.

cProfile charges every Python call but not the work inside a NumPy kernel,
so the proportions lean toward call-heavy code: find candidates here and in
the op split, measure them with ``perf/run.py``.  It also sees only the
calling thread — ``serve_mixed`` runs its statements on client threads, so
that workload gets the per-mode sums but an empty-looking profile.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import perf.workloads  # noqa: E402
from perf.run import child_environment  # noqa: E402
from perf.workloads import WORKLOADS, Checker  # noqa: E402

WARM_ROUNDS = 2


def _location(key) -> str:
    filename, line, function = key
    if filename == "~":  # a built-in: the name says it all
        return function
    path = Path(filename)
    if ROOT in path.parents:
        path = path.relative_to(ROOT)
    return f"{path}:{line}({function})"


def record_stats(records: list) -> None:
    """Make every workload op append ``(op, result.stats)`` to ``records``:
    the rounds time each op through ``perf.workloads.timed_op``."""
    timed_op = perf.workloads.timed_op

    def recording(op, call, *rest):
        def recorded():
            result = call()
            records.append((op, result.stats))
            return result

        timed_op(op, recorded, *rest)

    perf.workloads.timed_op = recording


def op_split(records: list) -> dict:
    """Milliseconds per ``(mode, op kind [join index])`` over ``records``."""
    split = defaultdict(float)
    for op, stats in records:
        for record in stats.op_stats:
            kind = f"{record.kind} [{record.join_index}]" if record.join_index else record.kind
            split[op.mode.value, kind] += record.seconds * 1e3
    return split


STEP_KINDS = ("pruned", "empty source", "exact", "Bloom")


def step_census(records: list) -> dict:
    """Transfer steps per ``(mode, kind)`` over ``records``, ``kind`` one of
    :data:`STEP_KINDS`, read from each step's ``TransferStepStats``."""
    census = defaultdict(int)
    for op, stats in records:
        for step in stats.transfer_steps:
            if step.skipped:
                kind = "pruned"
            elif not step.build_rows:
                kind = "empty source"
            elif step.downgraded_exact or op.mode.uses_exact_semijoins:
                kind = "exact"
            else:
                kind = "Bloom"
            census[op.mode.value, kind] += 1
    return census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    parser.add_argument("--quick", action="store_true", help="scale / 10, as perf/run.py --quick")
    args = parser.parse_args()

    env, scrubbed = child_environment()
    if scrubbed or os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    workload = WORKLOADS[args.workload]()
    state = workload.setup(args.quick)
    checker = Checker()
    profiler = cProfile.Profile()
    records: list = []
    try:
        for index in range(WARM_ROUNDS):
            workload.round(state, random.Random(f"profile/{args.workload}/{index}"), checker)
        rng = random.Random(f"profile/{args.workload}/{WARM_ROUNDS}")
        record_stats(records)
        profiler.enable()
        result = workload.round(state, rng, checker)
        profiler.disable()
        mode_of = {op.id: op.mode.value for op in state.ops}
    finally:
        state.close()

    print(
        f"{args.workload}: profiled round {result.wall:.3f} s wall, {result.attempted} ops, "
        f"{len(result.failures)} failed (scale {workload.effective_scale(args.quick):g})"
    )
    print(f"\ntop {args.top} by self time")
    print(f"{'self s':>8} {'cum s':>8} {'calls':>8}  function")
    rows = pstats.Stats(profiler).stats.items()
    for key, (_, calls, self_s, cum_s, _) in sorted(rows, key=lambda row: -row[1][2])[: args.top]:
        print(f"{self_s:8.3f} {cum_s:8.3f} {calls:8d}  {_location(key)}")

    by_mode = defaultdict(float)
    for op_id, latency_ms in result.latencies:
        by_mode[mode_of[op_id]] += latency_ms
    print("\nlatency summed per mode")
    for mode, total_ms in sorted(by_mode.items(), key=lambda item: item[1]):
        print(f"{total_ms:10.1f} ms  {mode}")
    split = op_split(records)
    print("\nop time per mode and op kind (engine timers, profiled round)")
    for (mode, kind), total_ms in sorted(split.items()):
        print(f"{total_ms:10.1f} ms  {mode:<11} {kind}")
    op_ms = defaultdict(float)
    for (mode, _), total_ms in split.items():
        op_ms[mode] += total_ms
    print("\nlatency outside engine ops per mode (front end, planning, compile)")
    for mode, total_ms in sorted(by_mode.items()):
        outside_ms = total_ms - op_ms[mode]
        print(f"{outside_ms:10.1f} ms  {mode:<11} {outside_ms / total_ms:6.1%} of its latency")
    census = step_census(records)
    print(f"\ntransfer steps per mode ({' / '.join(STEP_KINDS)})")
    for mode in sorted({mode for mode, _ in census}):
        counts = " / ".join(f"{census[mode, kind]:5d}" for kind in STEP_KINDS)
        print(f"  {mode:<11} {counts}")
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
