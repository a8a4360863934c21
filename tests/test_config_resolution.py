"""``ExecutionConfig.resolved()``: one table, one test.

Every row of :data:`repro.engine.modes.KNOB_TABLE` — (field, env var,
parser, range check, default) — is checked the same way: unset → default,
set → parsed, garbage → ``ExecutionError`` naming the field, the variable
and the value, explicit field beats the environment, and an out-of-range
value is a typed error whether it came from the field or the variable.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro import ExecutionConfig
from repro.engine import modes
from repro.errors import ExecutionError

#: Per range check: env text, its parsed value, a different explicit field
#: value, a text the parser must reject, and (text, field value) pairs the
#: check must reject.
SAMPLES = {
    modes._check_backend: (
        "parallel", "parallel", "serial", None,
        [("gpu", "gpu"), ("process", "process"), ("chunked", "chunked")],
    ),
    modes._check_worker_count: ("3", 3, 5, "abc", [("0", 0), ("-2", -2), (None, 1.5), (None, True)]),
    modes._check_flag: ("on", True, False, "maybe", [(None, "yes"), (None, 1)]),
    modes._check_budget: ("12345678", 12345678, 0, "1e6", [("-5", -5), (None, 0.5)]),
    modes._check_timeout: (
        "0.25", 0.25, 1.5, "soon",
        [("nan", float("nan")), ("-1", -1.0), ("0", 0), ("inf", float("inf")), (None, "1")],
    ),
}


@pytest.fixture()
def clean_env(monkeypatch):
    for _, env, _, _, _ in modes.KNOB_TABLE:
        monkeypatch.delenv(env, raising=False)
    return monkeypatch


def test_table_covers_every_env_variable_but_faults():
    envs = {value for name, value in vars(modes).items() if name.startswith("ENV_")}
    assert {row[1] for row in modes.KNOB_TABLE} == envs - {modes.ENV_FAULTS}
    fields = {f.name for f in dataclasses.fields(ExecutionConfig)}
    assert {row[0] for row in modes.KNOB_TABLE} == fields - {"faults"}
    assert len(fields) == 8 and len(envs) == 8 and len(modes.KNOB_TABLE) == 7


@pytest.mark.parametrize("name,env,parse,check,default", modes.KNOB_TABLE, ids=lambda v: str(v))
def test_knob_resolution(clean_env, name, env, parse, check, default):
    text, parsed, explicit, garbage, out_of_range = SAMPLES[check]
    assert getattr(ExecutionConfig().resolved(), name) == default
    clean_env.setenv(env, "")
    assert getattr(ExecutionConfig().resolved(), name) == default
    clean_env.setenv(env, text)
    assert getattr(ExecutionConfig().resolved(), name) == parsed
    assert getattr(ExecutionConfig(**{name: explicit}).resolved(), name) == explicit
    if garbage is not None:
        clean_env.setenv(env, garbage)
        with pytest.raises(ExecutionError) as raised:
            ExecutionConfig().resolved()
        message = str(raised.value)
        assert name in message and env in message and repr(garbage) in message
    for bad_text, bad_value in out_of_range:
        clean_env.delenv(env, raising=False)
        with pytest.raises(ExecutionError, match=name) as raised:
            ExecutionConfig(**{name: bad_value}).resolved()
        assert env not in str(raised.value)
        if bad_text is not None:
            clean_env.setenv(env, bad_text)
            with pytest.raises(ExecutionError) as raised:
                ExecutionConfig().resolved()
            message = str(raised.value)
            assert name in message and f"{env}={bad_text!r}" in message


def test_garbage_surfaces_from_execute_as_execution_error(clean_env, imdb_db, star_query):
    clean_env.setenv(modes.ENV_NUM_THREADS, "abc")
    with pytest.raises(ExecutionError, match="REPRO_NUM_THREADS='abc'"):
        imdb_db.execute(star_query)
    assert imdb_db.active_queries == 0


@pytest.mark.parametrize(
    "env,text",
    [(modes.ENV_MEMORY_BUDGET, "-5"), (modes.ENV_TIMEOUT_SECONDS, "nan"), (modes.ENV_TIMEOUT_SECONDS, "-1")],
)
def test_out_of_range_surfaces_from_execute_before_anything_runs(
    clean_env, imdb_db, star_query, env, text
):
    # Was: a bare ValueError from inside MemoryGovernor, a silently ignored
    # deadline, and QueryTimeout("exceeded its -1.0s deadline") on every query.
    clean_env.setenv(env, text)
    with pytest.raises(ExecutionError, match=f"{env}='{text}'"):
        imdb_db.execute(star_query)
    assert imdb_db.active_queries == 0


@pytest.mark.parametrize(
    "path", [".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"]
)
def test_ci_and_docs_name_only_variables_that_exist(path):
    """A deleted knob must not survive in a CI leg or a documented recipe."""
    known = {row[1] for row in modes.KNOB_TABLE} | {modes.ENV_FAULTS, "REPRO_BENCH_RECORD"}
    text = (Path(__file__).resolve().parent.parent / path).read_text()
    assert set(re.findall(r"REPRO_[A-Z_]+", text)) <= known


#: Source files still over the limit (ROADMAP item 4).  The list can only
#: shrink: an entry whose file is no longer over must be removed.
OVERSIZED_SOURCE_FILES = {"engine/server.py"}
MAX_SOURCE_LINES = 800


def test_source_files_stay_small():
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    over = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if len(path.read_text().splitlines()) > MAX_SOURCE_LINES
    }
    assert over - OVERSIZED_SOURCE_FILES == set(), f"over {MAX_SOURCE_LINES} lines"
    assert OVERSIZED_SOURCE_FILES - over == set(), "no longer over: drop from the allowlist"
