"""The checked-in ``.sql`` corpus: canonical text, and one answer on every path.

Three layers of coverage:

* **text** — every file is in the formatter's canonical form
  (``to_sql(compile(text)) == text``) under a ``-- name:`` equal to its
  stem, and the three synthetic files render their default instances;
* **full sweep** — every file parses, binds, and executes under all five
  execution modes with the answer ``BASELINE`` gives, and compiles to what
  its workload module's ``query(n)`` returns;
* **harness** — ``sqlfiles.run_all`` over every file on the parallel
  backend and traced, against the plain serial sweep.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ExecutionConfig, ExecutionMode, ExecutionOptions
from repro.sql import compile_statement, to_sql
from repro.workloads import job, sqlfiles, synthetic, tpcds, tpch

ALL_STEMS = sorted(sqlfiles.available())


@pytest.fixture(scope="module")
def databases(tpch_db, job_db, tpcds_db):
    """``databases(stem)``: the shared session databases (scale 0.1, seed 1),
    plus each synthetic file's own instance."""
    cache = {"tpch": tpch_db, "job": job_db, "tpcds": tpcds_db}
    shared = set(cache)
    yield lambda stem: sqlfiles.database_of(stem, cache)
    for key in set(cache) - shared:
        cache[key].close()


def test_corpus_is_packaged_in_full():
    """3 synthetic + 20 TPC-H + 33 JOB + 42 TPC-DS, found through the same
    ``sql/*.sql`` glob ``pyproject.toml`` packages."""
    assert len(ALL_STEMS) == 98
    assert [len(sqlfiles.stems_for(w)) for w in ("synthetic", "tpch", "job", "tpcds")] == [3, 20, 33, 42]


def test_files_are_canonical_and_named_after_their_stems(databases):
    """The corpus stays in formatter form without a generator to rewrite it."""
    for stem in ALL_STEMS:
        text = sqlfiles.sql_text(stem)
        query = compile_statement(text, databases(stem).catalog).query
        assert to_sql(query) == text, stem
        assert query.name == stem.replace("synthetic_", ""), stem


@pytest.mark.parametrize(
    "maker", [synthetic.figure2_instance, synthetic.figure12_instance, synthetic.unsafe_subjoin_instance]
)
def test_synthetic_files_render_the_default_instances(maker):
    query = maker().query
    assert to_sql(query) == sqlfiles.sql_text(f"synthetic_{query.name}")


@pytest.fixture(scope="module")
def module_queries():
    """Query name (= file stem) → what ``<module>.query(n)`` returns."""
    return {
        spec.name: spec for module in (tpch, job, tpcds) for spec in module.all_queries().values()
    }


@pytest.mark.parametrize("stem", ALL_STEMS)
def test_sql_file_bit_identical_all_modes(stem, databases, module_queries):
    """The acceptance sweep: every file × every mode, same plan, the answer
    BASELINE gives — and the text compiles to what ``<module>.query(n)`` returns."""
    db = databases(stem)
    text = sqlfiles.sql_text(stem)
    baseline = db.sql(text, mode=ExecutionMode.BASELINE)
    if not stem.startswith("synthetic_"):
        assert baseline.query == module_queries[stem]
    for mode in ExecutionMode:
        result = db.sql(text, mode=mode, plan=baseline.plan)
        assert result.aggregates == baseline.aggregates, (stem, mode)
        assert result.output_rows == baseline.output_rows, (stem, mode)


#: Every feature the harness sweeps pinned off; a sweep turns one knob on.
PLAIN = {"backend": "serial", "tracing": False}


@pytest.fixture(scope="module")
def harness():
    """``sweep(**execution)`` over every file, the plain serial answers, and
    the databases the sweeps run on.

    One set of generated tables serves every sweep, so their aggregates are
    comparable (the generators are not stable across processes).
    """
    databases = {}

    def sweep(mode=ExecutionMode.RPT, **execution):
        records = sqlfiles.run_all(
            mode=mode,
            options=ExecutionOptions(execution=ExecutionConfig(**execution)),
            scale=0.05,
            seed=3,
            database_cache=databases,
        )
        assert len(records) == len(ALL_STEMS)
        return {r["stem"]: r["aggregates"] for r in records}

    yield sweep, sweep(**PLAIN), databases
    for db in databases.values():
        db.close()


@pytest.mark.parametrize(
    "execution",
    [
        {},  # whatever the environment (a CI leg's REPRO_* variables) selects
        {**PLAIN, "tracing": True},
        {**PLAIN, "backend": "parallel"},
    ],
    ids=["environment", "traced", "parallel"],
)
def test_run_all_harness_smoke(execution, harness):
    """Every file executes and answers exactly what the plain serial sweep
    answers."""
    sweep, plain, _ = harness
    assert sweep(**execution) == plain


@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_base_columns_are_never_written(backend, harness, morsel_rows):
    """An unreduced relation hands the executor the base column itself (a
    read-only view), so nothing downstream may write through it: every
    column of every database is byte-identical after every file has run in
    every mode, with morsels small enough that the backends really fan out."""
    sweep, plain, databases = harness
    morsel_rows(512)

    def digests():
        return {
            (key, table.name, column.name): hashlib.sha256(column.data.tobytes()).hexdigest()
            for key, db in databases.items()
            for table in db.catalog
            for column in table.columns
        }

    before = digests()
    assert {"tpch", "job"} <= {key for key, _, _ in before}
    for mode in ExecutionMode:
        assert sweep(mode=mode, **{**PLAIN, "backend": backend}) == plain, mode
    assert digests() == before


def test_explain_sql_files_compile_without_executing(databases):
    """EXPLAIN over checked-in files produces a plan trace for every mode."""
    stem = "tpch_q5"
    db = databases(stem)
    for mode in ExecutionMode:
        explained = db.explain_sql(sqlfiles.sql_text(stem), mode=mode)
        assert len(explained.op_stats) == len(explained.physical_plan.ops)
        assert explained.query == tpch.query(5)


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
