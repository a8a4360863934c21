"""Checked-in ``.sql`` workloads execute bit-identical to the hand-built specs.

Three layers of coverage:

* **sync** — the checked-in files are exactly what the formatter renders
  from the hand-built QuerySpecs (no drift);
* **full sweep** — every file parses, binds, and executes under all five
  execution modes with aggregates bit-identical to the hand-built spec run
  under the same plan;
* **backend matrix** — a representative subset (one query per workload
  shape) additionally sweeps serial / chunked / parallel backends.
"""

from __future__ import annotations

import pytest

from repro import Database, ExecutionConfig, ExecutionMode, ExecutionOptions
from repro.workloads import sqlfiles

SCALE = 0.1
SEED = 1

ALL_STEMS = sorted(sqlfiles.available())

#: One query per structural family for the backend matrix.
MATRIX_STEMS = ("synthetic_figure2", "tpch_q3", "tpch_q5", "tpch_q9", "job_2a", "job_6a")

BACKENDS = ("serial", "chunked", "parallel")


@pytest.fixture(scope="module")
def specs():
    return sqlfiles.handbuilt_specs()


@pytest.fixture(scope="module")
def databases(tpch_db, job_db):
    """File-stem-keyed access to the shared workload databases.

    TPC-H and JOB reuse the session fixtures (same scale/seed); each
    synthetic query owns its instance database.
    """
    cache = {"tpch": tpch_db, "job": job_db}

    def lookup(stem: str) -> Database:
        workload = sqlfiles.workload_of(stem)
        if workload == "synthetic":
            key = f"synthetic:{stem}"
            if key not in cache:
                cache[key] = sqlfiles.database_for(
                    "synthetic", synthetic_query=stem[len("synthetic_") :]
                )
            return cache[key]
        return cache[workload]

    return lookup


def test_checked_in_files_cover_every_workload_query(specs):
    assert set(ALL_STEMS) == set(specs), (
        "checked-in .sql files and hand-built specs diverge; "
        "run repro.workloads.sqlfiles.regenerate()"
    )
    # 3 synthetic + 20 TPC-H + 33 JOB.
    assert len(ALL_STEMS) == 56


def test_checked_in_files_match_formatter_output(specs):
    rendered = sqlfiles.rendered_files()
    for stem in ALL_STEMS:
        assert sqlfiles.sql_text(stem) == rendered[stem], (
            f"{stem}.sql drifted from its hand-built spec; "
            "run repro.workloads.sqlfiles.regenerate()"
        )


@pytest.mark.parametrize("stem", ALL_STEMS)
def test_sql_file_bit_identical_all_modes(stem, specs, databases):
    """The acceptance sweep: every file × every mode, same plan, same answer."""
    db = databases(stem)
    text = sqlfiles.sql_text(stem)
    spec = specs[stem]
    plan = db.optimizer_plan(spec)
    for mode in ExecutionMode:
        via_sql = db.sql(text, mode=mode, plan=plan)
        assert via_sql.query == spec
        handbuilt = db.execute(spec, mode=mode, plan=plan)
        assert via_sql.aggregates == handbuilt.aggregates, (stem, mode)
        assert via_sql.output_rows == handbuilt.output_rows, (stem, mode)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stem", MATRIX_STEMS)
def test_backend_matrix_bit_identical(stem, backend, specs, databases):
    """Subset × 5 modes × serial/chunked/parallel: SQL and hand-built agree."""
    db = databases(stem)
    text = sqlfiles.sql_text(stem)
    spec = specs[stem]
    plan = db.optimizer_plan(spec)
    options = ExecutionOptions(execution=ExecutionConfig(backend=backend))
    for mode in ExecutionMode:
        via_sql = db.sql(text, mode=mode, plan=plan, options=options)
        handbuilt = db.execute(spec, mode=mode, plan=plan, options=options)
        assert via_sql.aggregates == handbuilt.aggregates, (stem, mode, backend)


#: Every feature the harness sweeps pinned off; a sweep turns one knob on.
PLAIN = {"backend": "serial", "encodings": False, "tracing": False}


@pytest.fixture(scope="module")
def harness():
    """``sweep(**execution)`` over every file, and the plain serial answers.

    One set of generated tables serves every sweep, so their aggregates are
    comparable (the generators are not stable across processes).
    """
    databases = {}

    def sweep(**execution):
        records = sqlfiles.run_all(
            options=ExecutionOptions(execution=ExecutionConfig(**execution)),
            scale=0.05,
            seed=3,
            database_cache=databases,
        )
        assert len(records) == len(ALL_STEMS)
        assert all(r["matches_handbuilt"] for r in records)
        return {r["stem"]: r["aggregates"] for r in records}

    yield sweep, sweep(**PLAIN)
    for db in databases.values():
        db.close()


@pytest.mark.parametrize(
    "execution",
    [
        {},  # whatever the environment (a CI leg's REPRO_* variables) selects
        {**PLAIN, "encodings": True},
        {**PLAIN, "tracing": True},
        {**PLAIN, "backend": "parallel"},
        {**PLAIN, "backend": "process"},
    ],
    ids=["environment", "encoded", "traced", "parallel", "process"],
)
def test_run_all_harness_smoke(execution, harness):
    """Every file executes, self-verifies against its hand-built spec, and
    answers exactly what the plain serial sweep answers."""
    sweep, plain = harness
    assert sweep(**execution) == plain


def test_explain_sql_files_compile_without_executing(specs, databases):
    """EXPLAIN over checked-in files produces a plan trace for every mode."""
    stem = "tpch_q5"
    db = databases(stem)
    for mode in ExecutionMode:
        explained = db.explain_sql(sqlfiles.sql_text(stem), mode=mode)
        assert len(explained.op_stats) == len(explained.physical_plan.ops)
        assert explained.query == specs[stem]


@pytest.mark.parametrize("stem", ALL_STEMS)
def test_every_bloom_build_is_followed_by_its_probe(stem, databases):
    """A Bloom step is one adjacent build/probe pair with one ``step_id``.

    The executor's per-step record (written by the build, popped by the
    probe) and the adaptive controller's cancellation by step id both rest
    on this; it is checked on the compiled plans, not at run time.
    """
    from repro.plan.physical import BloomBuild, BloomProbe

    db = databases(stem)
    for mode in ExecutionMode:
        ops = db.sql("EXPLAIN " + sqlfiles.sql_text(stem), mode=mode).physical_plan.ops
        builds = [index for index, op in enumerate(ops) if isinstance(op, BloomBuild)]
        for index in builds:
            build, probe = ops[index], ops[index + 1]
            assert isinstance(probe, BloomProbe), (mode, index)
            assert (probe.step_id, probe.scope) == (build.step_id, build.scope), (mode, index)
        assert len(builds) == sum(isinstance(op, BloomProbe) for op in ops), mode
        step_ids = [(ops[index].scope, ops[index].step_id) for index in builds]
        assert len(set(step_ids)) == len(step_ids), mode
