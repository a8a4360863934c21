"""Self-tests of the benchmark's own arithmetic (``pytest perf/``).

They build no database (only the golden round-trip imports the engine), so
they run in a second, and they stay out of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perf import catalog, compare, measure, run
from perf.trace import Recorder, Span, self_seconds

ROOT = Path(__file__).resolve().parent.parent


# -- percentile-support rule -------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert not measure.percentile_supported(99, 90)
    assert measure.percentile_supported(100, 90)
    assert measure.samples_beyond(300, 90) == 30
    assert measure.samples_beyond(19, 50) == 9


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 50) == 2.5
    assert measure.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


# -- geomean, quartiles -------------------------------------------------------
def test_geomean():
    assert measure.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert measure.geomean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        measure.geomean([])


def test_quartiles_follow_statistics_quantiles():
    summary = measure.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (summary["q1"], summary["median"], summary["q3"]) == (2.75, 5.5, 8.25)
    assert measure.relative_spread(summary) == pytest.approx(1.0)
    single = measure.quartiles([3.0])
    assert measure.relative_spread(single) == 0.0


# -- result agreement ---------------------------------------------------------
def test_counts_agree_exactly_sums_within_tolerance():
    assert measure.aggregates_agree({"count_star": 7.0}, {"count_star": 7.0})
    assert not measure.aggregates_agree({"count_star": 7.0}, {"count_star": 8.0})
    assert not measure.aggregates_agree({"count_star": 1e12}, {"count_star": 1e12 + 1})
    assert measure.aggregates_agree({"sum_x": 0.1 + 0.2}, {"sum_x": 0.3})
    assert not measure.aggregates_agree({"sum_x": 0.3}, {"sum_x": 0.3001})
    assert not measure.aggregates_agree({"a": 1.0}, {"b": 1.0})


# -- self-time arithmetic ------------------------------------------------------
def test_self_time_is_duration_minus_child_cover():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("engine", "op", op="q1"):          # 0 .. 7
        with recorder.span("sql", "parse"):               # 1 .. 2
            pass
        with recorder.span("exec", "execute"):            # 3 .. 6
            with recorder.span("exec", "phase.join"):     # 4 .. 5
                pass
    own = recorder.self_seconds()
    by_name = {span.name: own[span.id] for span in recorder.spans}
    assert by_name == {"op": 3.0, "parse": 1.0, "execute": 2.0, "phase.join": 1.0}
    assert all(span.op == "q1" for span in recorder.spans)
    totals = recorder.totals()
    assert totals[("exec", "execute")]["seconds"] == 3.0
    assert totals[("exec", "execute")]["self_seconds"] == 2.0


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        Span(id=0, parent=None, op=None, layer="a", name="parent", start=0.0, end=10.0),
        Span(id=1, parent=0, op=None, layer="a", name="c1", start=1.0, end=5.0),
        Span(id=2, parent=0, op=None, layer="a", name="c2", start=4.0, end=7.0),   # overlaps c1
        Span(id=3, parent=0, op=None, layer="a", name="c3", start=9.0, end=12.0),  # overhangs
    ]
    assert self_seconds(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_graft_keeps_engine_timestamps_and_numeric_counts():
    class Node:
        def __init__(self, name, kind, start, end, attrs=None, children=()):
            self.name, self.kind, self.start, self.end = name, kind, start, end
            self.attrs, self.children = attrs or {}, list(children)

    engine = Node("q", "query", 1.0, 9.0, children=[
        Node("join", "phase", 2.0, 8.0, children=[
            Node("hash_probe", "op", 3.0, 7.0, {"rows_in": 5, "detail": "x", "skipped": False}),
        ]),
    ])
    ticks = iter([0.0, 10.0])
    recorder = Recorder(clock=lambda: next(ticks))
    with recorder.span("exec", "execute", op="q/rpt"):
        recorder.graft(engine)
    names = [(span.name, span.parent, span.op) for span in recorder.spans]
    assert names == [("execute", None, "q/rpt"), ("query", 0, "q/rpt"),
                     ("phase.join", 1, "q/rpt"), ("op.hash_probe", 2, "q/rpt")]
    assert recorder.spans[3].counts == {"rows_in": 5}
    assert recorder.self_seconds()[0] == pytest.approx(2.0)


# -- compare verdicts ----------------------------------------------------------
def _summary(values):
    return measure.quartiles(values)


def test_verdicts():
    steady = _summary([100.0, 101.0, 99.0, 100.0])
    assert compare.verdict(steady, _summary([104.0, 105.0, 103.0, 104.0]), "lower", 0.10) == "same"
    assert compare.verdict(steady, _summary([120.0, 121.0, 119.0, 120.0]), "lower", 0.10) == "worse"
    assert compare.verdict(steady, _summary([80.0, 81.0, 79.0, 80.0]), "lower", 0.10) == "better"
    assert compare.verdict(steady, _summary([80.0, 81.0, 79.0, 80.0]), "higher", 0.10) == "worse"
    noisy = _summary([60.0, 100.0, 140.0, 100.0])
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"


def _document(qps, failed=0):
    metrics = {m.name: {"unit": m.unit, "values": [1.0, 1.0]} for m in catalog.END_TO_END}
    metrics["queries_per_s"]["values"] = qps
    return {"workloads": {"w": {"end_to_end": metrics, "failed_share": failed / 100}}}


def test_compare_rows_cover_every_metric_and_failed_share():
    rows = compare.compare(_document([50.0, 50.0]), _document([30.0, 30.0], failed=1))
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert set(verdicts) == {m.name for m in catalog.END_TO_END} | {"failed_share"}
    assert verdicts["queries_per_s"] == "worse"
    assert verdicts["failed_share"] == "worse"
    assert verdicts["setup_s"] == "same"
    row = next(row for row in rows if row["metric"] == "queries_per_s")
    assert row["ratio"] == pytest.approx(0.6)
    assert "worse" in compare.render(rows)


# -- goldens and the contract file ---------------------------------------------
def test_golden_round_trip(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))  # perf.worker imports the engine
    from perf import worker
    from perf.workloads import WORKLOADS, Checker, Op

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert declared == [{"name": name, "why": cls.why} for name, cls in WORKLOADS.items()]
    monkeypatch.setattr(worker, "EXPECTED_DIR", tmp_path)

    class Fake:
        name, scale = "fake", 1.0

    checker = Checker()
    op = Op(id="q1/rpt", query="q1", mode=None, db="x")
    assert checker.check(op, {"count_star": 12}) is None
    assert checker.check(op, {"count_star": 12.0}) is None
    assert "disagree" in checker.check(op, {"count_star": 13})

    assert worker.check_goldens(Fake, checker, write=False) == [
        "no goldens at fake.json; run with --write-expected"
    ]
    assert worker.check_goldens(Fake, checker, write=True) == []
    assert worker.check_goldens(Fake, checker, write=False) == []
    checker.reference["q1"] = {"count_star": 99.0}
    checker.reference["q2"] = {"count_star": 1.0}
    problems = worker.check_goldens(Fake, checker, write=False)
    assert len(problems) == 2 and "golden" in problems[0] and "not in goldens" in problems[1]


def test_benchmark_json_matches_catalogue_and_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert document == catalog.benchmark_json(document["workloads"], document["run_seconds"])
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 1 <= len(document["end_to_end"]) <= 16 and 1 <= len(document["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names)) and all(len(name) <= 64 for name in names)
