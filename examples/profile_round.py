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
3. the top ``N`` functions by *self* time, and the profiled round's latency
   summed per execution mode.

cProfile charges every Python call but not the work inside a NumPy kernel,
so the proportions lean toward call-heavy code: find candidates here,
measure them with ``perf/run.py``.  It also sees only the calling thread —
``serve_mixed`` runs its statements on client threads, so that workload
gets the per-mode sums but an empty-looking profile.
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
    try:
        for index in range(WARM_ROUNDS):
            workload.round(state, random.Random(f"profile/{args.workload}/{index}"), checker)
        rng = random.Random(f"profile/{args.workload}/{WARM_ROUNDS}")
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
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
