"""``ExecutionConfig.resolved()``: one table, one test.

Every row of :data:`repro.engine.modes.KNOB_TABLE` — (field, env var,
parser, default) — is checked the same way: unset → default, set → parsed,
garbage → ``ExecutionError`` naming the variable and the value, explicit
field beats the environment.  Replaces the hand-written per-variable cases
(``TestConfigResolution`` in ``test_hash_cache.py`` / ``test_adaptive.py``,
``TestExecutionConfigResolution`` in ``test_parallel_runtime.py``, the env
cases of ``TestConfiguration`` in ``test_process_backend.py``); their
``hash_cache`` / ``selection_vectors`` / ``ndv_sizing`` /
``adaptive_min_yield`` cases went with those fields.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ExecutionConfig
from repro.engine import modes
from repro.errors import ExecutionError

#: Per parser: env text, its parsed value, a different explicit field value,
#: and a text the parser must reject.
SAMPLES = {
    modes._parse_backend: ("process", "process", "chunked", "gpu"),
    modes._parse_positive_int: ("3", 3, 5, "abc"),
    modes._parse_flag: ("on", True, False, "maybe"),
    int: ("12345678", 12345678, 7, "1e6"),
    float: ("0.25", 0.25, 1.5, "soon"),
}


@pytest.fixture()
def clean_env(monkeypatch):
    for _, env, _, _ in modes.KNOB_TABLE:
        monkeypatch.delenv(env, raising=False)
    return monkeypatch


def test_table_covers_every_env_variable_but_faults():
    envs = {value for name, value in vars(modes).items() if name.startswith("ENV_")}
    assert {env for _, env, _, _ in modes.KNOB_TABLE} == envs - {modes.ENV_FAULTS}
    fields = {f.name for f in dataclasses.fields(ExecutionConfig)}
    assert {name for name, _, _, _ in modes.KNOB_TABLE} <= fields
    assert len(fields) == 17 and len(envs) == 15


@pytest.mark.parametrize("name,env,parse,default", modes.KNOB_TABLE, ids=lambda v: str(v))
def test_knob_resolution(clean_env, name, env, parse, default):
    text, parsed, explicit, garbage = SAMPLES[parse]
    if name == "bitmap_downgrade":
        default = False  # follows adaptive_transfer, which is unset here
    assert getattr(ExecutionConfig().resolved(), name) == default
    clean_env.setenv(env, "")
    assert getattr(ExecutionConfig().resolved(), name) == default
    clean_env.setenv(env, text)
    assert getattr(ExecutionConfig().resolved(), name) == parsed
    assert getattr(ExecutionConfig(**{name: explicit}).resolved(), name) == explicit
    clean_env.setenv(env, garbage)
    with pytest.raises(ExecutionError) as raised:
        ExecutionConfig().resolved()
    assert env in str(raised.value) and repr(garbage) in str(raised.value)


def test_bitmap_downgrade_follows_adaptive_transfer(clean_env):
    assert ExecutionConfig(adaptive_transfer=True).resolved().bitmap_downgrade is True
    clean_env.setenv(modes.ENV_ADAPTIVE_TRANSFER, "1")
    assert ExecutionConfig().resolved().bitmap_downgrade is True
    assert ExecutionConfig(bitmap_downgrade=False).resolved().bitmap_downgrade is False


@pytest.mark.parametrize("env", [modes.ENV_NUM_THREADS, modes.ENV_NUM_WORKERS])
@pytest.mark.parametrize("text", ["0", "-2"])
def test_non_positive_counts_from_the_environment_are_rejected(clean_env, env, text):
    clean_env.setenv(env, text)
    with pytest.raises(ExecutionError, match=env):
        ExecutionConfig().resolved()


def test_garbage_surfaces_from_execute_as_execution_error(clean_env, imdb_db, star_query):
    clean_env.setenv(modes.ENV_NUM_THREADS, "abc")
    with pytest.raises(ExecutionError, match="REPRO_NUM_THREADS='abc'"):
        imdb_db.execute(star_query)
    assert imdb_db.active_queries == 0
