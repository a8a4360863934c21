"""SQL front end: lexer, parser (golden ASTs + error positions), binder, lowering.

The acceptance contract: well-formed SQL lowers to exactly the QuerySpec a
hand-built definition would produce, and *every* malformed input raises
:class:`SqlError` — with a line/column position and a caret rendering —
never a bare exception.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro import Database, ExecutionMode, SqlError
from repro.errors import ReproError
from repro.expr import (
    And,
    Between,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    StringPredicate,
    eq,
    is_not_null,
    is_null,
)
from repro.query import (
    AggregateSpec,
    JoinCondition,
    PostJoinPredicate,
    QualifiedComparison,
    QuerySpec,
    RelationRef,
)
from repro.sql import compile_statement, parse_statement, split_statements, to_sql, tokenize
from repro.sql.ast import (
    AndExpr,
    BetweenExpr,
    ColumnName,
    ComparisonExpr,
    InExpr,
    LikeExpr,
    LiteralValue,
    NotExpr,
    OrExpr,
)
from repro.sql.corpus import MALFORMED_CORPUS, MALFORMED_SEMANTIC, MALFORMED_SYNTAX


@pytest.fixture(scope="module")
def small_db() -> Database:
    """Two tiny joinable tables (t(a, b) ⋈ s(a, c)) plus a string column."""
    db = Database()
    db.register_dataframe(
        "t", {"a": np.arange(10), "b": np.arange(10) * 2}, primary_key=["a"]
    )
    db.register_dataframe(
        "s",
        {
            "a": np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
            "c": np.arange(10),
            "label": [f"item{i}" for i in range(10)],
        },
    )
    return db


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
class TestLexer:
    def test_token_kinds_and_values(self):
        tokens = tokenize("SELECT COUNT(*) FROM t WHERE a >= 1.5 AND b = 'x''y'")
        kinds = [t.kind for t in tokens]
        assert kinds[-1] == "eof"
        texts = [t.text for t in tokens[:-1]]
        assert texts[:4] == ["SELECT", "COUNT", "(", "*"]
        number = next(t for t in tokens if t.kind == "number")
        assert number.value == 1.5
        string = next(t for t in tokens if t.kind == "string")
        assert string.value == "x'y"

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From wHeRe")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n /* block\nspanning */ FROM")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM"]

    def test_negative_number(self):
        tokens = tokenize("WHERE a > -999.0")
        number = next(t for t in tokens if t.kind == "number")
        assert number.value == -999.0

    # Only ASCII 0-9 start a number: '²' and '٣' satisfy ``str.isdigit``.
    @pytest.mark.parametrize("source", ["SELECT @", "SELECT \u00b2", "SELECT \u0663"])
    def test_unexpected_character_position(self, source):
        with pytest.raises(SqlError) as info:
            tokenize(source)
        assert info.value.pos == 7
        assert info.value.line == 1
        assert info.value.column == 8
        assert "^" in str(info.value)

    def test_unterminated_string(self):
        with pytest.raises(SqlError, match="unterminated string"):
            tokenize("WHERE a = 'oops")

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlError, match="unterminated block comment"):
            tokenize("SELECT /* oops")


# ---------------------------------------------------------------------------
# Parser: golden ASTs
# ---------------------------------------------------------------------------
class TestParserGolden:
    def test_minimal_select(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t")
        assert not stmt.explain
        assert len(stmt.items) == 1
        item = stmt.items[0]
        assert item.function == "count" and item.star and item.output_name is None
        assert stmt.tables[0].table == "t" and stmt.tables[0].alias == "t"
        assert stmt.where is None

    def test_aliases_and_output_names(self):
        stmt = parse_statement(
            "SELECT COUNT(*) AS n, SUM(l.price) revenue FROM lineitem AS l, orders o"
        )
        assert stmt.items[0].output_name == "n"
        assert stmt.items[1].function == "sum"
        # pos anchors at the qualifier token ("l.price" starts at offset 26).
        assert stmt.items[1].column == ColumnName(name="price", qualifier="l", pos=26)
        assert stmt.items[1].output_name == "revenue"
        assert [(t.table, t.alias) for t in stmt.tables] == [("lineitem", "l"), ("orders", "o")]

    def test_where_tree_shape(self):
        stmt = parse_statement(
            "SELECT COUNT(*) FROM t WHERE a = 1 AND (b < 2 OR b > 5) AND NOT c IN (1, 2)"
        )
        where = stmt.where
        assert isinstance(where, AndExpr) and len(where.operands) == 3
        first, second, third = where.operands
        assert isinstance(first, ComparisonExpr) and first.op == "="
        assert isinstance(first.left, ColumnName) and first.left.name == "a"
        assert isinstance(first.right, LiteralValue) and first.right.value == 1
        assert isinstance(second, OrExpr) and len(second.operands) == 2
        assert isinstance(third, NotExpr)
        assert isinstance(third.operand, InExpr)
        assert [v.value for v in third.operand.values] == [1, 2]

    def test_nested_parens_not_flattened(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t WHERE (a = 1 AND b = 2) AND c = 3")
        where = stmt.where
        assert isinstance(where, AndExpr) and len(where.operands) == 2
        assert isinstance(where.operands[0], AndExpr)

    def test_between_not_confused_by_and(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b = 2")
        where = stmt.where
        assert isinstance(where, AndExpr) and len(where.operands) == 2
        assert isinstance(where.operands[0], BetweenExpr)
        assert where.operands[0].low.value == 1 and where.operands[0].high.value == 5

    def test_predicate_forms(self):
        stmt = parse_statement(
            "SELECT COUNT(*) FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT LIKE 'x%' "
            "AND c IS NOT NULL AND d IS NULL AND 5 < e"
        )
        between, like, notnull, null, flipped = stmt.where.operands
        assert isinstance(between, BetweenExpr) and between.negated
        assert isinstance(like, LikeExpr) and like.negated and like.pattern == "x%"
        assert notnull.negated and not null.negated
        assert isinstance(flipped.left, LiteralValue) and isinstance(flipped.right, ColumnName)

    def test_explain_and_name_directive(self):
        stmt = parse_statement("-- name: my_query\nEXPLAIN SELECT COUNT(*) FROM t;")
        assert stmt.explain
        assert stmt.name == "my_query"

    def test_name_directive_only_from_leading_comments(self):
        # A "-- name:" sequence inside a string literal or a trailing
        # comment must not override the query name.
        in_string = parse_statement("SELECT COUNT(*) FROM t WHERE a = '-- name: evil'")
        assert in_string.name is None
        trailing = parse_statement("SELECT COUNT(*) FROM t -- name: late")
        assert trailing.name is None
        leading_block = parse_statement("/* -- name: blocky */ SELECT COUNT(*) FROM t")
        assert leading_block.name == "blocky"

    def test_keyword_named_column_parses_when_qualified(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t WHERE t.min < 3 AND t.Like = 1")
        first, second = stmt.where.operands
        assert first.left == ColumnName(name="min", qualifier="t", pos=29)
        # Original spelling is preserved, not the canonical keyword case.
        assert second.left.name == "Like"

    def test_error_position_points_at_offender(self):
        source = "SELECT COUNT(*) FROM t\nWHERE a == 1"
        with pytest.raises(SqlError) as info:
            parse_statement(source)
        # '==' lexes as '=' then '='; the parser trips on the second '='.
        assert info.value.line == 2
        rendered = str(info.value)
        assert "^" in rendered and "line 2" in rendered

    def test_caret_alignment(self):
        source = "SELECT COUNT(*) FROM t WHERE %"
        with pytest.raises(SqlError) as info:
            parse_statement(source)
        message_line, source_line, caret_line = str(info.value).splitlines()
        assert source_line == f"  {source}"
        assert caret_line.index("^") - 2 == source.index("%")


# ---------------------------------------------------------------------------
# Malformed corpus: SqlError always, bare exceptions never
# ---------------------------------------------------------------------------
class TestMalformedCorpus:
    @pytest.mark.parametrize("source", MALFORMED_SYNTAX, ids=range(len(MALFORMED_SYNTAX)))
    def test_syntax_corpus_raises_sql_error(self, source):
        with pytest.raises(SqlError) as info:
            parse_statement(source)
        assert isinstance(info.value, ReproError)
        assert info.value.line is not None and info.value.column is not None

    @pytest.mark.parametrize("source", MALFORMED_CORPUS, ids=range(len(MALFORMED_CORPUS)))
    def test_full_corpus_raises_sql_error_through_database(self, source, small_db):
        with pytest.raises(SqlError):
            small_db.sql(source)

    @pytest.mark.parametrize("source", MALFORMED_SEMANTIC, ids=range(len(MALFORMED_SEMANTIC)))
    def test_semantic_corpus_parses_but_fails_binding(self, source, small_db):
        parse_statement(source)  # must parse cleanly...
        with pytest.raises(SqlError):  # ...and fail at bind/lower time
            compile_statement(source, small_db.catalog)


# ---------------------------------------------------------------------------
# Binder diagnostics
# ---------------------------------------------------------------------------
class TestBinder:
    def test_unknown_table_lists_catalog(self, small_db):
        with pytest.raises(SqlError, match="unknown table 'nope'.*registered tables: s, t"):
            compile_statement("SELECT COUNT(*) FROM nope", small_db.catalog)

    def test_unknown_qualified_column_lists_table_columns(self, small_db):
        with pytest.raises(SqlError, match="unknown column 'z' of alias 't'.*has: a, b"):
            compile_statement("SELECT COUNT(*) FROM t WHERE t.z = 1", small_db.catalog)

    def test_unknown_alias_lists_declared(self, small_db):
        with pytest.raises(SqlError, match="unknown relation alias 'x'.*declared aliases: t"):
            compile_statement("SELECT COUNT(*) FROM t WHERE x.a = 1", small_db.catalog)

    def test_ambiguous_column_names_candidates(self, small_db):
        with pytest.raises(SqlError, match="ambiguous column 'a'.*s.a or t.a"):
            compile_statement("SELECT COUNT(*) FROM t, s WHERE a = 1", small_db.catalog)

    def test_unqualified_column_resolves_when_unique(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND c = 3", small_db.catalog
        )
        assert compiled.query.relation("s").filter == eq("c", 3)

    def test_query_name_in_messages(self, small_db):
        with pytest.raises(SqlError, match="query 'named_q'"):
            compile_statement(
                "-- name: named_q\nSELECT COUNT(*) FROM t WHERE t.z = 1", small_db.catalog
            )

    def test_numeric_column_vs_string_literal_rejected(self, small_db):
        # Without bind-time type checking this escapes as a raw NumPy
        # ufunc error mid-execution.
        with pytest.raises(SqlError, match="numeric column.*string"):
            small_db.sql("SELECT COUNT(*) FROM t WHERE a < 'x'")
        with pytest.raises(SqlError, match="numeric column"):
            small_db.sql("SELECT COUNT(*) FROM t WHERE a BETWEEN 'x' AND 'y'")
        with pytest.raises(SqlError, match="numeric column"):
            small_db.sql("SELECT COUNT(*) FROM t WHERE a IN (1, 'x')")

    def test_string_column_vs_numeric_literal_rejected(self, small_db):
        with pytest.raises(SqlError, match="string column.*numeric"):
            small_db.sql("SELECT COUNT(*) FROM s WHERE label = 5")

    def test_like_on_numeric_column_rejected_at_bind_time(self, small_db):
        with pytest.raises(SqlError, match="LIKE requires a string column"):
            small_db.sql("SELECT COUNT(*) FROM t WHERE a LIKE 'x%'")

    def test_string_equality_still_binds(self, small_db):
        result = small_db.sql("SELECT COUNT(*) AS n FROM s WHERE label = 'item3'")
        assert result.aggregates["n"] == 1.0

    def test_string_column_join_rejected(self):
        # Dictionary codes are per column; joining them would silently match
        # unrelated strings.
        db = Database()
        db.register_dataframe("x1", {"k": np.arange(3), "s": ["apple", "banana", "cherry"]})
        db.register_dataframe("x2", {"k": np.arange(3), "s2": ["banana", "cherry", "durian"]})
        with pytest.raises(SqlError, match="dictionaries differ"):
            db.sql("SELECT COUNT(*) FROM x1 a, x2 b WHERE a.s = b.s2")
        with pytest.raises(SqlError, match="string column.*numeric"):
            db.sql("SELECT COUNT(*) FROM x1 a, x2 b WHERE a.s = b.k")

    def test_string_self_join_same_column_allowed(self):
        # Two occurrences of the same table column share one dictionary, so
        # the code-level join is exact.
        db = Database()
        db.register_dataframe(
            "w", {"k": np.arange(4), "s": ["a", "b", "b", "c"]}
        )
        result = db.sql("SELECT COUNT(*) AS n FROM w AS l, w AS r WHERE l.s = r.s")
        # a:1x1 + b:2x2 + c:1x1 pairings.
        assert result.aggregates["n"] == 6.0

    def test_string_aggregate_rejected(self, small_db):
        with pytest.raises(SqlError, match=r"SUM\(s.label\) is not supported"):
            small_db.sql("SELECT SUM(s.label) FROM s")
        with pytest.raises(SqlError, match="MIN"):
            small_db.sql("SELECT MIN(s.label) FROM s")
        # COUNT over a string column just counts rows — allowed.
        result = small_db.sql("SELECT COUNT(s.label) AS n FROM s")
        assert result.aggregates["n"] == 10.0

    def test_explicit_name_overrides_directive(self, small_db):
        compiled = compile_statement(
            "-- name: from_directive\nSELECT COUNT(*) FROM t", small_db.catalog, name="override"
        )
        assert compiled.query.name == "override"


# ---------------------------------------------------------------------------
# Lowering: WHERE-conjunct classification
# ---------------------------------------------------------------------------
class TestLowering:
    def test_classification(self, small_db):
        compiled = compile_statement(
            """
            -- name: classified
            SELECT COUNT(*) AS count_star
            FROM t, s
            WHERE t.a = s.a
              AND t.b < 6
              AND (s.c BETWEEN 1 AND 8 AND s.label LIKE 'item%')
            """,
            small_db.catalog,
        )
        spec = compiled.query
        assert spec.joins == (JoinCondition("t", "a", "s", "a"),)
        assert spec.relation("t").filter == Comparison("b", "<", 6)
        assert spec.relation("s").filter == And(
            (Between("c", 1, 8), StringPredicate("label", "prefix", "item"))
        )
        assert spec.post_join_predicates == ()
        assert spec.aggregates == (AggregateSpec(function="count", output_name="count_star"),)

    def test_multiple_conjuncts_same_alias_combine_in_order(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM t WHERE a < 5 AND b > 1 AND a IS NOT NULL",
            small_db.catalog,
        )
        assert compiled.query.relation("t").filter == And(
            (Comparison("a", "<", 5), Comparison("b", ">", 1), is_not_null("a"))
        )

    def test_flipped_literal_comparison(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM t WHERE 5 <= a", small_db.catalog
        )
        assert compiled.query.relation("t").filter == Comparison("a", ">=", 5)

    def test_negated_forms_lower_to_not(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM s WHERE c NOT IN (1, 2) AND label NOT LIKE '%9'",
            small_db.catalog,
        )
        assert compiled.query.relation("s").filter == And(
            (Not(InList("c", (1, 2))), Not(StringPredicate("label", "suffix", "9")))
        )

    def test_is_null_forms(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM t WHERE a IS NULL OR b IS NOT NULL", small_db.catalog
        )
        assert compiled.query.relation("t").filter == Or((is_null("a"), is_not_null("b")))

    def test_post_join_predicate_or_of_ands(self, small_db):
        compiled = compile_statement(
            """
            SELECT COUNT(*) FROM t, s
            WHERE t.a = s.a
              AND ((t.b < 4 AND s.c < 3) OR (t.b > 10 AND s.c > 7))
            """,
            small_db.catalog,
        )
        assert compiled.query.post_join_predicates == (
            PostJoinPredicate(
                disjuncts=(
                    (
                        QualifiedComparison("t", "b", "<", 4),
                        QualifiedComparison("s", "c", "<", 3),
                    ),
                    (
                        QualifiedComparison("t", "b", ">", 10),
                        QualifiedComparison("s", "c", ">", 7),
                    ),
                )
            ),
        )

    def test_single_conjunct_post_join(self, small_db):
        compiled = compile_statement(
            "SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND (t.b < 4 AND s.c < 3)",
            small_db.catalog,
        )
        assert compiled.query.post_join_predicates == (
            PostJoinPredicate(
                disjuncts=(
                    (
                        QualifiedComparison("t", "b", "<", 4),
                        QualifiedComparison("s", "c", "<", 3),
                    ),
                )
            ),
        )

    def test_non_equi_join_rejected(self, small_db):
        with pytest.raises(SqlError, match="only equality joins"):
            compile_statement(
                "SELECT COUNT(*) FROM t, s WHERE t.a < s.a", small_db.catalog
            )

    def test_same_alias_column_comparison_rejected(self, small_db):
        with pytest.raises(SqlError, match="two columns of 't'"):
            compile_statement("SELECT COUNT(*) FROM t WHERE t.a = t.b", small_db.catalog)

    def test_constant_predicate_rejected(self, small_db):
        with pytest.raises(SqlError, match="references no column"):
            compile_statement("SELECT COUNT(*) FROM t WHERE 1 = 1", small_db.catalog)

    def test_multi_relation_between_rejected(self, small_db):
        with pytest.raises(SqlError, match="simple comparisons"):
            compile_statement(
                "SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND (t.b < 4 OR s.c BETWEEN 1 AND 2)",
                small_db.catalog,
            )


# ---------------------------------------------------------------------------
# Database.sql / EXPLAIN / Database.explain
# ---------------------------------------------------------------------------
class TestDatabaseSql:
    def test_sql_executes(self, small_db):
        result = small_db.sql(
            "SELECT COUNT(*) AS n FROM t, s WHERE t.a = s.a AND t.a < 3"
        )
        # s.a cycles 0..4 twice; a < 3 keeps a in {0,1,2}, two s rows each.
        assert result.aggregates == {"n": 6.0}

    def test_sql_modes_agree(self, small_db):
        text = "SELECT COUNT(*) AS n FROM t, s WHERE t.a = s.a AND s.c > 2"
        results = {
            mode: small_db.sql(text, mode=mode).aggregates for mode in ExecutionMode
        }
        assert len({tuple(sorted(r.items())) for r in results.values()}) == 1

    def test_explain_statement_does_not_execute(self, small_db):
        explained = small_db.sql("EXPLAIN SELECT COUNT(*) FROM t, s WHERE t.a = s.a")
        from repro.engine.database import ExplainResult

        assert isinstance(explained, ExplainResult)
        assert explained.physical_plan is not None
        assert all(op.seconds == 0.0 and op.rows_out == 0 for op in explained.op_stats)
        trace = explained.render()
        assert "== RPT ==" in trace and "scan" in trace
        assert "PhysicalPlan" in explained.describe()

    def test_explain_rendering_does_not_import_the_benchmark_package(self):
        """The engine has no back-edge into ``repro.bench`` (fresh interpreter:
        this process has the package loaded already)."""
        script = (
            "import sys, numpy as np\n"
            "from repro import Database\n"
            "db = Database()\n"
            "db.register_dataframe('t', {'a': np.arange(4)})\n"
            "db.register_dataframe('s', {'a': np.arange(4)})\n"
            "text = 'SELECT COUNT(*) FROM t, s WHERE t.a = s.a'\n"
            "assert '== RPT ==' in db.sql('EXPLAIN ' + text).render()\n"
            "assert '== RPT ==' in db.sql('EXPLAIN ANALYZE ' + text).render()\n"
            "assert not [m for m in sys.modules if m.startswith('repro.bench')]\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)

    def test_explain_sql_matches_execute_compilation(self, small_db):
        text = "SELECT COUNT(*) FROM t, s WHERE t.a = s.a"
        explained = small_db.explain_sql(text, mode=ExecutionMode.PT)
        executed = small_db.sql(text, mode=ExecutionMode.PT)
        assert explained.physical_plan.op_kinds() == executed.physical_plan.op_kinds()

    def test_explain_programmatic_spec(self, small_db):
        spec = QuerySpec(
            name="prog",
            relations=(RelationRef("t", "t"), RelationRef("s", "s")),
            joins=(JoinCondition("t", "a", "s", "a"),),
        )
        explained = small_db.explain(spec, mode=ExecutionMode.YANNAKAKIS)
        assert explained.query is spec
        assert [op.kind for op in explained.op_stats] == list(
            explained.physical_plan.op_kinds()
        )
        assert "== Yannakakis ==" in explained.render()

    def test_explain_all_modes(self, small_db):
        spec = QuerySpec(
            name="prog_modes",
            relations=(RelationRef("t", "t"), RelationRef("s", "s")),
            joins=(JoinCondition("t", "a", "s", "a"),),
        )
        for mode in ExecutionMode:
            explained = small_db.explain(spec, mode=mode)
            assert len(explained.op_stats) == len(explained.physical_plan.ops)

    def test_sql_name_parameter(self, small_db):
        result = small_db.sql("SELECT COUNT(*) FROM t", name="renamed")
        assert result.query.name == "renamed"

    def test_run_uniform_trace_runs_a_compiled_statement(self, small_db):
        from repro.bench import run_uniform_trace

        text = "SELECT COUNT(*) AS n FROM t, s WHERE t.a = s.a"
        query = compile_statement(text, small_db.catalog).query
        traces = run_uniform_trace(small_db, query, modes=(ExecutionMode.RPT,))
        assert traces[ExecutionMode.RPT].aggregates["n"] == 10.0


# ---------------------------------------------------------------------------
# split_statements (multi-statement .sql files)
# ---------------------------------------------------------------------------
class TestSplitStatements:
    def test_splits_on_semicolons(self):
        parts = split_statements(
            "-- name: one\nSELECT COUNT(*) FROM t;\n-- name: two\nSELECT COUNT(*) FROM s;"
        )
        assert len(parts) == 2
        assert "one" in parts[0] and "two" in parts[1]

    def test_ignores_semicolons_in_strings_and_comments(self):
        parts = split_statements(
            "SELECT COUNT(*) FROM t WHERE label = 'a;b'; -- trailing; comment\n"
        )
        assert len(parts) == 1

    def test_comment_only_tail_dropped(self):
        parts = split_statements("SELECT COUNT(*) FROM t;\n-- just a comment\n")
        assert len(parts) == 1


# ---------------------------------------------------------------------------
# IsNull expression semantics
# ---------------------------------------------------------------------------
class TestIsNull:
    def test_evaluate(self, small_db):
        table = small_db.table("t")
        assert not is_null("a").evaluate(table).any()
        assert is_not_null("a").evaluate(table).all()

    def test_sql_execution(self, small_db):
        none = small_db.sql("SELECT COUNT(*) AS n FROM t WHERE a IS NULL")
        every = small_db.sql("SELECT COUNT(*) AS n FROM t WHERE a IS NOT NULL")
        assert none.aggregates["n"] == 0.0
        assert every.aggregates["n"] == 10.0

    def test_unknown_column_still_raises(self, small_db):
        with pytest.raises(ReproError):
            IsNull("missing").evaluate(small_db.table("t"))


# ---------------------------------------------------------------------------
# PlanError diagnostics (satellite: alias/column always named)
# ---------------------------------------------------------------------------
class TestPlanErrorDiagnostics:
    def test_duplicate_alias_names_the_alias(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match=r"duplicate relation aliases: \['x'\]"):
            QuerySpec(
                name="dup",
                relations=(RelationRef("x", "t"), RelationRef("x", "s")),
                joins=(),
            )

    def test_unknown_join_alias_names_condition_and_known(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match=r"t\.a = ghost\.a.*unknown alias 'ghost'.*declared"):
            QuerySpec(
                name="ghostly",
                relations=(RelationRef("t", "t"),),
                joins=(JoinCondition("t", "a", "ghost", "a"),),
            )

    def test_empty_relation_ref_names_fields(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match="alias='', table='t'"):
            RelationRef("", "t")

    def test_aggregate_error_names_inputs(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match="aggregate 'sum' requires an input column"):
            AggregateSpec(function="sum")
