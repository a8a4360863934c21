"""Unit tests for bound relations and for the transfer and join phases as executed
through ``Database.execute(mode=..., plan=...)``."""

from __future__ import annotations

import numpy as np
import pytest

from reference_match import replay_match
from repro.engine.database import Database, ExecutionOptions
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.errors import ExecutionError
from repro.exec import TransferOptions
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.plan.join_plan import JoinNode, JoinPlan, LeafNode
from repro.query import JoinCondition, QualifiedComparison, QuerySpec, RelationRef
from repro.expr import eq, lt
from repro.storage.column import Column
from repro.storage.datatypes import DataType
from repro.storage.table import ForeignKey, Table


@pytest.fixture()
def small_db() -> Database:
    db = Database()
    db.register_dataframe(
        "dim",
        {"id": [1, 2, 3, 4, 5], "color": ["red", "blue", "red", "green", "blue"]},
        primary_key=["id"],
    )
    db.register_dataframe(
        "fact",
        {
            "dim_id": [1, 1, 2, 3, 3, 3, 5, 9],
            "other_id": [1, 2, 1, 2, 1, 2, 1, 2],
            "value": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
        },
        foreign_keys=[ForeignKey("dim_id", "dim", "id"), ForeignKey("other_id", "other", "id")],
    )
    db.register_dataframe("other", {"id": [1, 2], "flag": [0, 1]}, primary_key=["id"])
    return db


@pytest.fixture()
def small_query() -> QuerySpec:
    return QuerySpec(
        name="small",
        relations=(
            RelationRef("d", "dim", eq("color", "red")),
            RelationRef("f", "fact"),
            RelationRef("o", "other", eq("flag", 1)),
        ),
        joins=(
            JoinCondition("f", "dim_id", "d", "id"),
            JoinCondition("f", "other_id", "o", "id"),
        ),
    )


class TestBoundRelation:
    def test_bind_applies_base_filters(self, small_db, small_query):
        filtered = small_db.execute(small_query).stats.filtered_rows
        assert filtered["d"] == 2   # red rows
        assert filtered["f"] == 8
        assert filtered["o"] == 1

    def test_key_values_and_keep(self, small_db):
        fact = BoundRelation.from_table("f", small_db.table("fact"))
        keys = fact.key_values("dim_id")
        assert keys.tolist() == [1, 1, 2, 3, 3, 3, 5, 9]
        fact.keep(keys <= 2)
        assert fact.num_rows == 3

    def test_keep_wrong_length_raises(self, small_db):
        fact = BoundRelation.from_table("f", small_db.table("fact"))
        with pytest.raises(ExecutionError):
            fact.keep(np.array([True]))

    def test_float_column_rejected_as_key(self, small_db):
        fact = BoundRelation.from_table("f", small_db.table("fact"))
        with pytest.raises(ExecutionError):
            fact.key_values("value")

    def test_snapshot_is_independent(self, small_db):
        fact = BoundRelation.from_table("f", small_db.table("fact"))
        snap = fact.snapshot()
        fact.keep(np.zeros(8, dtype=bool))
        assert fact.num_rows == 0
        assert snap.num_rows == 8


class TestTransferPhase:
    """The transfer phase through ``Database.execute``: the mode picks Bloom
    filters (RPT / PT) or exact semi-joins (Yannakakis)."""

    def _run(self, db, query, use_bloom=True, prune=True, schedule_kind="rpt"):
        if schedule_kind == "pt":
            mode = ExecutionMode.PT
        else:
            mode = ExecutionMode.RPT if use_bloom else ExecutionMode.YANNAKAKIS
        options = ExecutionOptions(transfer=TransferOptions(prune_trivial_semijoins=prune))
        result = db.execute(query, mode=mode, options=options)
        return result.relations, result.stats

    def test_exact_semijoin_full_reduction(self, small_db, small_query):
        """After the exact transfer phase every surviving tuple joins in the output."""
        relations, stats = self._run(small_db, small_query, use_bloom=False)
        # dim rows: only red dims referenced by facts whose other_id has flag=1.
        # fact rows must reference a red dim AND other_id = 2.
        fact_rows = {
            (d, o)
            for d, o in zip(relations["f"].key_values("dim_id"), relations["f"].key_values("other_id"))
        }
        assert all(o == 2 for _, o in fact_rows)
        assert all(d in (1, 3) for d, _ in fact_rows)
        assert stats.reduced_rows["f"] == relations["f"].num_rows

    def test_bloom_is_superset_of_exact(self, small_db, small_query):
        exact_relations, _ = self._run(small_db, small_query, use_bloom=False)
        bloom_relations, _ = self._run(small_db, small_query, use_bloom=True)
        for alias in ("d", "f", "o"):
            exact_rows = set(exact_relations[alias].row_ids().tolist())
            bloom_rows = set(bloom_relations[alias].row_ids().tolist())
            assert exact_rows <= bloom_rows

    def test_step_statistics_recorded(self, small_db, small_query):
        _, stats = self._run(small_db, small_query)
        assert stats.transfer_steps
        for step in stats.transfer_steps:
            assert step.rows_after <= step.rows_before
        assert stats.bloom_bytes > 0

    def test_trivial_pk_fk_steps_pruned(self, small_db):
        """With no filter on `dim`, the fact ⋉ dim step is trivial and skipped."""
        query = QuerySpec(
            name="no_filter",
            relations=(RelationRef("d", "dim"), RelationRef("f", "fact")),
            joins=(JoinCondition("f", "dim_id", "d", "id"),),
        )
        _, stats = self._run(small_db, query, prune=True)
        skipped = [s for s in stats.transfer_steps if s.skipped]
        assert any(s.source == "d" and s.target == "f" for s in skipped)
        _, stats_noprune = self._run(small_db, query, prune=False)
        assert not any(s.skipped for s in stats_noprune.transfer_steps)

    def test_small2large_schedule_also_runs(self, small_db, small_query):
        relations, stats = self._run(small_db, small_query, schedule_kind="pt")
        assert stats.transfer_steps
        assert relations["f"].num_rows <= 8


class TestJoinPhase:
    """The join phase over exactly reduced relations (Yannakakis mode), with
    the join plan supplied explicitly."""

    def _join(self, db, query, plan, mode=ExecutionMode.YANNAKAKIS):
        return db.execute(query, mode=mode, plan=plan)

    def test_all_left_deep_orders_same_output(self, small_db, small_query):
        outputs = set()
        for order in (("d", "f", "o"), ("f", "d", "o"), ("o", "f", "d")):
            result = self._join(small_db, small_query, JoinPlan.from_left_deep(order))
            outputs.add(result.output_rows)
            assert result.stats.output_rows == result.output_rows
        assert len(outputs) == 1

    def test_cartesian_product_rejected_by_default(self, small_db, small_query):
        with pytest.raises(ExecutionError):
            self._join(small_db, small_query, JoinPlan.from_left_deep(("d", "o", "f")))

    def test_bushy_plan_matches_left_deep(self, small_db, small_query):
        bushy = JoinPlan(root=JoinNode(
            left=JoinNode(left=LeafNode("f"), right=LeafNode("d")),
            right=LeafNode("o"),
        ))
        left_deep = JoinPlan.from_left_deep(("f", "d", "o"))
        a = self._join(small_db, small_query, bushy)
        b = self._join(small_db, small_query, left_deep)
        assert a.output_rows == b.output_rows

    def test_build_side_flip_preserves_result(self, small_db, small_query):
        flipped = JoinPlan(root=JoinNode(
            left=JoinNode(left=LeafNode("f"), right=LeafNode("d"), flip_build_side=True),
            right=LeafNode("o"),
        ))
        normal = JoinPlan.from_left_deep(("f", "d", "o"))
        a = self._join(small_db, small_query, flipped)
        b = self._join(small_db, small_query, normal)
        assert a.output_rows == b.output_rows

    def test_bloom_prefilter_does_not_change_result(self, small_db, small_query):
        plan = JoinPlan.from_left_deep(("f", "d", "o"))
        plain = self._join(small_db, small_query, plan, mode=ExecutionMode.BASELINE)
        with_bloom = self._join(small_db, small_query, plan, mode=ExecutionMode.BLOOM_JOIN)
        assert "bloom_probe" in with_bloom.physical_plan.op_kinds()
        assert plain.output_rows == with_bloom.output_rows

    def test_aggregates(self, small_db, small_query):
        from repro.query import AggregateSpec

        query = small_query.with_aggregates(
            [AggregateSpec("count", output_name="n"), AggregateSpec("sum", "f", "value", "total"),
             AggregateSpec("min", "f", "value", "lo"), AggregateSpec("max", "f", "value", "hi"),
             AggregateSpec("avg", "f", "value", "mean")]
        )
        result = self._join(small_db, query, JoinPlan.from_left_deep(("f", "d", "o")))
        aggs = result.aggregates
        assert aggs["n"] == result.output_rows
        assert aggs["lo"] <= aggs["mean"] <= aggs["hi"]
        assert aggs["total"] == pytest.approx(aggs["mean"] * aggs["n"])

    def test_join_step_stats_recorded(self, small_db, small_query):
        stats = self._join(small_db, small_query, JoinPlan.from_left_deep(("f", "d", "o"))).stats
        assert len(stats.join_steps) == 2
        assert stats.total_intermediate_rows == stats.join_steps[0].output_rows
        assert stats.total_tuples_processed > 0
        assert stats.reduced_rows


class TestHashBuildPrefilter:
    """A build side with more than four times its probe side's rows is
    indexed over only the rows a probe key can hit; the joined pairs are
    those of the whole build side, order included."""

    #: Build keys with duplicates and with keys no probe holds (40 and up).
    BUILD = [5, 40, 3, 5, 41, 7, 3, 3, 42, 9, 5, 43] * 5

    CASES = {
        "some-rows": [3, 9, 5, 77, 3, 1],
        "no-probe-rows": [],
        "every-row": [41, 3, 42, 5, 40, 9, 7, 43, 3],
        "build-4x-probe": [3] * 15,  # 60 rows = 4 x 15: no prefilter
    }

    def _join(self, monkeypatch, probe_keys, backend="serial", artifact_cache=False):
        db = Database()
        db.register_dataframe(
            "probe_t", {"k": np.asarray(probe_keys, dtype=np.int64)}, dtypes={"k": DataType.INT64}
        )
        db.register_dataframe("build_t", {"k": self.BUILD, "v": np.arange(len(self.BUILD))})
        query = QuerySpec(
            name="prefilter",
            relations=(RelationRef("p", "probe_t"), RelationRef("b", "build_t")),
            joins=(JoinCondition("p", "k", "b", "k"),),
        )
        merges = []
        merge = IntermediateResult.merge

        def recording_merge(probe, build, probe_rows, build_rows):
            merges.append((dict(probe.positions), dict(build.positions), probe_rows, build_rows))
            return merge(probe, build, probe_rows, build_rows)

        monkeypatch.setattr(IntermediateResult, "merge", recording_merge)
        options = ExecutionOptions(
            execution=ExecutionConfig(
                backend=backend, num_threads=2, artifact_cache=artifact_cache
            )
        )
        for _ in range(2):  # a second run may find the first one's artifacts
            result = db.execute(
                query, mode=ExecutionMode.BASELINE, plan=JoinPlan.from_left_deep(("p", "b")),
                options=options,
            )
        (build_op,) = [op for op in result.op_stats if op.kind == "hash_build"]
        return merges[-1], build_op, result

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_pairs_equal_the_whole_build_side_replay(self, monkeypatch, morsel_rows, case, backend):
        morsel_rows(7)  # cuts the 60-row ``contains`` pass into morsels
        probe_keys = self.CASES[case]
        (probe_pos, build_pos, probe_rows, build_rows), build_op, result = self._join(
            monkeypatch, probe_keys, backend
        )
        # Untouched relations enter the join holding no positions.
        assert probe_pos == {"p": None} and build_pos == {"b": None}
        want_probe, want_build = replay_match(probe_keys, self.BUILD)
        np.testing.assert_array_equal(probe_rows, want_probe)
        np.testing.assert_array_equal(build_rows, want_build)
        assert result.output_rows == want_probe.size
        hit = int(np.isin(self.BUILD, probe_keys).sum())
        prefiltered = len(self.BUILD) > 4 * len(probe_keys)
        assert build_op.indexed_rows == (hit if prefiltered else len(self.BUILD))
        assert result.stats.indexed_build_rows == build_op.indexed_rows
        if build_op.indexed_rows:
            assert f" [indexed {build_op.indexed_rows}]" in result.stats.op_trace()
        if backend == "parallel" and prefiltered:
            assert build_op.morsels == -(-len(self.BUILD) // 7)

    def test_an_index_the_artifact_cache_shares_covers_every_row(self, monkeypatch):
        probe_keys = self.CASES["some-rows"]
        (_, _, probe_rows, build_rows), build_op, result = self._join(
            monkeypatch, probe_keys, artifact_cache=True
        )
        assert build_op.indexed_rows == len(self.BUILD)
        assert result.stats.artifact_cache_hits
        want_probe, want_build = replay_match(probe_keys, self.BUILD)
        np.testing.assert_array_equal(probe_rows, want_probe)
        np.testing.assert_array_equal(build_rows, want_build)


class TestIntermediateResult:
    def test_merge_rejects_overlap(self):
        a = IntermediateResult(positions={"x": np.array([0, 1])})
        b = IntermediateResult(positions={"x": np.array([0])})
        with pytest.raises(ExecutionError):
            a.merge(b, np.array([0]), np.array([0]))

    def test_from_relation_and_take(self):
        table = Table.from_dict("t", {"a": [10, 20, 30]})
        relation = BoundRelation.from_table("r", table)
        result = IntermediateResult.from_relation(relation)
        assert result.num_rows == 3
        taken = result.take(np.array([2, 0]))
        assert taken.column_values({"r": relation}, "r", "a").tolist() == [30, 10]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
    def test_string_comparison_decodes_only_the_joined_rows(self, op):
        """Order comparisons on a string column compare the *strings* of the
        joined tuples' rows, not their dictionary codes (the dictionary below
        is deliberately unsorted, which tells the two apart) — from an
        identity relation and from a reduced one."""
        words = ["pear", "apple", "fig", "apple", "kiwi", "zucchini"]
        dictionary = ("kiwi", "zucchini", "apple", "pear", "fig")  # deliberately unsorted
        codes = np.array([dictionary.index(word) for word in words], dtype=np.int64)
        table = Table("t", (Column.from_codes("w", codes, dictionary),))
        term = QualifiedComparison("r", "w", op, "kiwi")
        compare = {"<": str.__lt__, "<=": str.__le__, ">": str.__gt__, ">=": str.__ge__,
                   "==": str.__eq__, "!=": str.__ne__}[op]
        for keep, positions in ((None, [5, 0, 0, 2]), ([True, False, True, True, False, True], [3, 0, 1, 1])):
            relation = BoundRelation.from_table("r", table)
            if keep is not None:
                relation.keep(np.array(keep))
            result = IntermediateResult(positions={"r": np.array(positions)})
            rows = relation.row_ids()[positions]
            mask = result.evaluate_qualified_comparison({"r": relation}, term)
            assert mask.tolist() == [compare(words[row], "kiwi") for row in rows]
