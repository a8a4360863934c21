#!/usr/bin/env python3
"""The repo's wall-clock benchmark.  Three ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one result line (the ``BENCHMARK.json`` contract): the
    last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).

``python3 perf/run.py run [--seed 1] [--workloads a,b] [--quick] [--repeat N]``
    Every workload, timed rounds plus the traced pass; prints every metric
    as ``workload metric value unit`` and writes ``perf/out/latest.json``.

``python3 perf/run.py compare A.json B.json``
    Verdict per workload x end-to-end metric between two ``latest.json``.

Each workload runs in a subprocess of its own with every ``REPRO_*``
variable scrubbed and ``PYTHONHASHSEED=0`` (the data generators seed their
RNGs through ``hash()``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
if not __package__:
    # Run as a script: replace the script directory on sys.path by the repo
    # root and the engine's source tree.  Modules here are imported as
    # ``perf.<name>`` (so ``perf/trace.py`` cannot shadow the standard
    # library's ``trace``), the engine as ``repro``.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf.catalog import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("tpch_exec", "job_plan", "job_random_orders", "serve_mixed")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
#: A child that has not finished by then is killed (contract: 180 s a run).
CHILD_TIMEOUT_SECONDS = 170


def child_environment() -> tuple[dict, dict]:
    """The child's environment, and the ``REPRO_*`` variables scrubbed from it."""
    scrubbed = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}
    env = {key: value for key, value in os.environ.items() if key not in scrubbed}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, scrubbed


def run_child(workload: str, seed: int, seconds: float, trace: bool, end_to_end: bool,
              quick: bool = False, write_expected: bool = False) -> dict:
    """Run one workload in a subprocess and return its result document."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perf/run.py: no engine source at {ROOT / 'src' / 'repro'}")
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--end-to-end", str(int(end_to_end)),
        "--quick", str(int(quick)), "--write-expected", str(int(write_expected)),
    ]
    env, _ = child_environment()
    # subprocess.run kills the child and waits for it when the timeout expires.
    finished = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    if finished.returncode != 0:
        raise SystemExit(f"perf/run.py: workload {workload} could not run "
                         f"(exit {finished.returncode})")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    from perf.worker import run_workload

    document = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        end_to_end=bool(args.end_to_end), quick=bool(args.quick),
        write_expected=bool(args.write_expected),
    )
    print(json.dumps(document))
    return 0


# ---------------------------------------------------------------------------
# Contract form: one workload, one result line
# ---------------------------------------------------------------------------
def driver_main(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    # A traced run spends a third of the budget on tracing-off rounds (the
    # base of optimizer.share and the paper.* ratios), the rest on the pass.
    seconds = args.seconds / 3 if trace else args.seconds
    document = run_child(args.workload, args.seed, seconds, trace=trace, end_to_end=not trace)
    if trace:
        metrics = {}
        for name, entry in document["per_layer"].items():
            if entry["value"] is None:
                print(f"{name}: not measured ({entry['reason']})", file=sys.stderr)
            # The result line carries numbers only; 0 stands for "not measured".
            metrics[name] = {"value": entry["value"] or 0.0, "unit": entry["unit"]}
    else:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in document["end_to_end"].items()
        }
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# run: every workload, human-readable, latest.json
# ---------------------------------------------------------------------------
def environment_record(scrubbed: dict) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "load_average_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "scrubbed_env": scrubbed,
    }


def print_workload(name: str, document: dict) -> None:
    for metric in END_TO_END:
        entry = document["end_to_end"][metric.name]
        extra = f"  (n={entry['n']}"
        if "q1" in entry:
            extra += f", q1={entry['q1']:.4f}, q3={entry['q3']:.4f}"
        if "ops" in entry:
            extra += f" samples of {entry['ops']} ops"
        if not entry.get("supported", True):
            extra += ", fewer than 10 samples beyond"
        extra += ")"
        print(f"{name} {metric.name} {entry['value']:.4f} {metric.unit}{extra}")
    share = document["failed"] / document["attempted"]
    print(f"{name} failed_share {share:.6f} ratio  ({document['failed']} of {document['attempted']} ops)")
    for metric in PER_LAYER:
        entry = document["per_layer"][metric.name]
        if entry["value"] is None:
            print(f"{name} {metric.name} null {metric.unit}  ({entry['reason']})")
        else:
            print(f"{name} {metric.name} {entry['value']:.4f} {metric.unit}")


def run_main(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOAD_NAMES)
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {list(WORKLOAD_NAMES)}")
    _, scrubbed = child_environment()
    result = {
        "env": environment_record(scrubbed),
        "config": {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
                   "repeat": args.repeat},
        "workloads": {},
    }
    for name in names:
        runs = []
        for repeat in range(args.repeat):
            document = run_child(
                name, args.seed + repeat, args.seconds, trace=True, end_to_end=True,
                quick=args.quick, write_expected=args.write_expected and repeat == 0,
            )
            runs.append(document)
            print_workload(name, document)
        last = runs[-1]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        result["workloads"][name] = {
            "why": last["why"],
            "scale": last["scale"],
            "rounds": [run["rounds"] for run in runs],
            "correct": all(run["correct"] for run in runs),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": [message for run in runs for message in run["failures"]][:20],
            "end_to_end": {
                metric.name: {
                    "unit": metric.unit,
                    "values": [run["end_to_end"][metric.name]["value"] for run in runs],
                    "last": last["end_to_end"][metric.name],
                }
                for metric in END_TO_END
            },
            "per_layer": last["per_layer"],
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


def compare_main(args: argparse.Namespace) -> int:
    from perf.compare import compare, render

    rows = compare(json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()))
    print(render(rows))
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="perf/run.py run")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                            help="how long the timed rounds of each workload measure")
        parser.add_argument("--workloads", default="", help="comma-separated subset")
        parser.add_argument("--quick", action="store_true", help="scale / 10, one timed round")
        parser.add_argument("--repeat", type=int, default=1,
                            help="complete runs per workload (seed, seed+1, ...)")
        parser.add_argument("--write-expected", action="store_true",
                            help="regenerate perf/expected/<workload>.json")
        parser.add_argument("--out", default=str(PERF_DIR / "out" / "latest.json"))
        return run_main(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="perf/run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return compare_main(parser.parse_args(argv[1:]))
    if argv and argv[0] == "child":
        parser = argparse.ArgumentParser(prog="perf/run.py child")
        _add_run_arguments(parser)
        parser.add_argument("--end-to-end", type=int, default=1)
        parser.add_argument("--quick", type=int, default=0)
        parser.add_argument("--write-expected", type=int, default=0)
        return child_main(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_run_arguments(parser)
    return driver_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
