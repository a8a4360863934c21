"""``ExecutionConfig.resolved()``: one table, one test.

Every row of :data:`repro.engine.modes.KNOB_TABLE` — (field, env var,
parser, range check, default) — is checked the same way: unset → default,
set → parsed, garbage → ``ExecutionError`` naming the field, the variable
and the value, explicit field beats the environment, and an out-of-range
value is a typed error whether it came from the field or the variable.
"""

from __future__ import annotations

import ast
import ctypes
import dataclasses
import re
import types
from pathlib import Path

import pytest

import repro
from repro import ExecutionConfig, ExecutionOptions, ServerConfig
from repro.engine import modes
from repro.errors import ExecutionError
from repro.exec import TransferOptions

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
    assert len(fields) == 6 and len(envs) == 6 and len(modes.KNOB_TABLE) == 5
    # The per-execution options: a new one has to be set by some caller.
    assert {f.name for f in dataclasses.fields(ExecutionOptions)} == {
        "transfer", "skip_backward_if_aligned", "execution", "cancel", "tracer",
    }
    assert {f.name for f in dataclasses.fields(TransferOptions)} == {
        "fpr", "prune_trivial_semijoins",
    }
    # The serving knobs: admission only (deadlines come from ExecutionConfig).
    assert {f.name for f in dataclasses.fields(ServerConfig)} == {
        "max_concurrent", "max_queue", "admission_timeout_seconds",
    }


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
    [(modes.ENV_NUM_THREADS, "0"), (modes.ENV_TIMEOUT_SECONDS, "nan"), (modes.ENV_TIMEOUT_SECONDS, "-1")],
)
def test_out_of_range_surfaces_from_execute_before_anything_runs(
    clean_env, imdb_db, star_query, env, text
):
    # Was: a silently ignored deadline, and QueryTimeout("exceeded its -1.0s
    # deadline") on every query.
    clean_env.setenv(env, text)
    with pytest.raises(ExecutionError, match=f"{env}='{text}'"):
        imdb_db.execute(star_query)
    assert imdb_db.active_queries == 0


@pytest.mark.parametrize(
    "name,env,text",
    [
        ("memory_budget_bytes", "REPRO_MEMORY_BUDGET", "-5"),
        ("adaptive_transfer", "REPRO_ADAPTIVE_TRANSFER", "1"),
    ],
)
def test_removed_knobs_change_nothing(clean_env, imdb_db, star_query, name, env, text):
    """A removed knob is no configuration field, and its old variable — even
    holding a value that used to change or refuse the run — is not read."""
    with pytest.raises(TypeError, match=name):
        ExecutionConfig(**{name: 1})
    baseline = imdb_db.execute(star_query)
    clean_env.setenv(env, text)
    assert imdb_db.execute(star_query).aggregates == baseline.aggregates


def test_malloc_thresholds_are_pinned_constants_and_optional(monkeypatch):
    """The import-time pin sets glibc's mmap / trim thresholds to fixed values,
    and is a silent no-op where the C library cannot be opened."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    repro._pin_malloc_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def unavailable(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", unavailable)
    repro._pin_malloc_thresholds()  # must not raise


#: Execution options that were removed rather than defaulted off.
DELETED_OPTIONS = (
    "JoinPhaseOptions",
    "LargestRootOptions",
    "EstimationErrorModel",
    "estimation_error",
    "verify_safe_join_order",
    "allow_cartesian_products",
    "HashCache",
    "hashcache",
    "session_memory_bytes",
    "reserved_memory_bytes",
    "rejected_memory",
    "default_timeout_seconds",
    "shed_timeout_seconds",
    "plan_cache_entries",
    "query_log_entries",
    # Not a bare "plan_cache": names such as plan_cache_hits stay.
    "plan_cache=False",
    "CompiledStatement",
    "run_sql_trace",
    "bind_relations",
)


@pytest.mark.parametrize(
    "path", [".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"]
)
def test_ci_and_docs_name_only_variables_that_exist(path):
    """A deleted knob must not survive in a CI leg or a documented recipe."""
    known = {row[1] for row in modes.KNOB_TABLE} | {modes.ENV_FAULTS, "REPRO_BENCH_RECORD"}
    text = (Path(__file__).resolve().parent.parent / path).read_text()
    assert set(re.findall(r"REPRO_[A-Z_]+", text)) <= known
    assert [name for name in DELETED_OPTIONS if name in text] == []


MAX_SOURCE_LINES = 800


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses (a name inside a string counts as
    used: quoted annotations, ``__all__``)."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            used |= {name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)}
    return sorted(imported - used)


def test_source_files_stay_small():
    """Every ``src/repro`` module stays under the line limit and imports only what it uses."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {path.relative_to(root).as_posix(): path.read_text() for path in root.rglob("*.py")}
    over = {name for name, text in sources.items() if len(text.splitlines()) > MAX_SOURCE_LINES}
    assert over == set(), f"over {MAX_SOURCE_LINES} lines"
    unused = {name: names for name, text in sources.items() if (names := _unused_imports(text))}
    assert unused == {}, "unused imports"
