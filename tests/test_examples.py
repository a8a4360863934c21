"""Smoke test: every script in ``examples/`` runs cleanly against the current API.

The examples are executed as real subprocesses (fresh interpreter, the same
``PYTHONPATH=src`` contract the README documents), so any API drift — a
renamed option, a changed ``QueryResult`` attribute, a moved module — fails
CI instead of silently rotting the documentation.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))

#: Generous per-example ceiling; each example runs in around a second.
EXAMPLE_TIMEOUT_SECONDS = 300

#: Takes arguments (and imports the benchmark's workloads): its own test below.
PROFILE_ROUND = EXAMPLES_DIR / "profile_round.py"


def test_examples_directory_is_populated():
    assert EXAMPLE_SCRIPTS, f"no example scripts found under {EXAMPLES_DIR}"


def _run_example(script: Path, *args: str) -> str:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    completed = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=EXAMPLE_TIMEOUT_SECONDS,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited with {completed.returncode}\n"
        f"--- stdout ---\n{completed.stdout[-2000:]}\n"
        f"--- stderr ---\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script.name} produced no output"
    return completed.stdout


@pytest.mark.parametrize(
    "script", [s for s in EXAMPLE_SCRIPTS if s != PROFILE_ROUND], ids=lambda p: p.name
)
def test_example_runs_cleanly(script: Path):
    _run_example(script)


def test_profile_round_smoke():
    """One profiled ``tpch_exec`` round at ``--quick`` scale: 100 ops, none
    failed, the self-time table, and a latency sum for each of the five modes."""
    stdout = _run_example(PROFILE_ROUND, "tpch_exec", "--quick", "--top", "5")
    assert "100 ops, 0 failed" in stdout
    assert "top 5 by self time" in stdout
    for mode in ("baseline", "bloom_join", "pt", "rpt", "yannakakis"):
        assert f" ms  {mode}\n" in stdout
