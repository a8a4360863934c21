"""Unit tests for the expression language and selectivity estimation."""

from __future__ import annotations

import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.expr import (
    and_,
    between,
    col,
    contains,
    ends_with,
    eq,
    estimate_selectivity,
    ge,
    gt,
    isin,
    le,
    lit,
    lt,
    ne,
    not_,
    or_,
    starts_with,
)
from repro.expr.expressions import Comparison
from repro.query import QualifiedComparison
from repro.storage import Column, Table
from repro.storage.catalog import TableStatistics


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        "t",
        {
            "x": [1, 5, 10, 15, 20],
            "y": [2.0, 4.0, 6.0, 8.0, 10.0],
            "s": ["apple", "banana", "apricot", "cherry", "blueberry"],
        },
    )


class TestComparisons:
    def test_eq_int(self, table):
        assert eq("x", 10).evaluate(table).tolist() == [False, False, True, False, False]

    def test_ne(self, table):
        assert ne("x", 10).evaluate(table).sum() == 4

    def test_lt_le_gt_ge(self, table):
        assert lt("x", 10).evaluate(table).sum() == 2
        assert le("x", 10).evaluate(table).sum() == 3
        assert gt("x", 10).evaluate(table).sum() == 2
        assert ge("x", 10).evaluate(table).sum() == 3

    def test_eq_string_uses_dictionary(self, table):
        assert eq("s", "cherry").evaluate(table).tolist() == [False, False, False, True, False]

    def test_eq_missing_string_matches_nothing(self, table):
        assert eq("s", "zucchini").evaluate(table).sum() == 0

    def test_ordered_string_comparison_decodes(self, table):
        # Lexicographic: strings < "b" are only "apple" and "apricot".
        assert lt("s", "b").evaluate(table).sum() == 2

    def test_invalid_operator_raises(self):
        with pytest.raises(ExecutionError):
            Comparison("x", "<>", 1)

    def test_referenced_columns(self):
        assert eq("x", 1).referenced_columns() == frozenset({"x"})


#: The six comparison operators as plain Python string comparisons.
_PY_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
#: Short words over a small alphabet, so prefixes and ties are common.
_WORDS = st.text(alphabet="abyz", max_size=3)


@st.composite
def _string_filters(draw):
    """A string column over a sorted, reversed or shuffled dictionary, and one
    ordered comparison or ``BETWEEN`` whose literals may be absent from it."""
    words = draw(st.lists(_WORDS, unique=True, max_size=6))
    order = draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order == "shuffled":
        dictionary = draw(st.permutations(words))
    else:
        dictionary = sorted(words, reverse=order == "reversed")
    codes = draw(st.lists(st.integers(0, len(words) - 1), max_size=30)) if words else []
    literal = st.one_of(st.sampled_from(words), _WORDS) if words else _WORDS
    op = draw(st.sampled_from([*_PY_COMPARE, "between"]))
    if op == "between":
        conditions = ((">=", draw(literal)), ("<=", draw(literal)))
    else:
        conditions = ((op, draw(literal)),)
    return tuple(dictionary), codes, op, conditions


def _decode_every_row(dictionary, codes, conditions):
    """The reference: decode each row and compare the Python strings."""
    return [
        all(_PY_COMPARE[op](dictionary[code], value) for op, value in conditions)
        for code in codes
    ]


def _no_decode(column):
    raise AssertionError(f"string filter decoded column {column.name!r}")


def _string_table(dictionary, codes):
    return Table("t", (Column.from_codes("s", np.asarray(codes, dtype=np.int64), dictionary),))


#: The same strings in sorted order and in an order whose codes disagree with
#: string order, as ``Column.from_codes`` allows.
_GRID_DICTIONARIES = {
    "sorted": ("apple", "kiwi", "mango", "pear"),
    "unsorted": ("pear", "apple", "mango", "kiwi"),
}
_GRID_ROWS = ["mango", "apple", "pear", "kiwi", "mango", "pear", "apple"]
#: Per case: the rows, the comparison literal and ``BETWEEN``'s bounds.
_GRID_CASES = {
    "present": (_GRID_ROWS, "kiwi", ("kiwi", "pear")),
    "absent": (_GRID_ROWS, "lemon", ("banana", "orange")),
    "empty": ([], "kiwi", ("apple", "mango")),
}


def _grid_case(op, order, case):
    """The dictionary, row codes and ``(op, literal)`` conditions of one grid cell."""
    dictionary = _GRID_DICTIONARIES[order]
    rows, literal, (low, high) = _GRID_CASES[case]
    codes = [dictionary.index(row) for row in rows]
    conditions = ((">=", low), ("<=", high)) if op == "between" else ((op, literal),)
    return dictionary, codes, conditions


class TestStringComparisons:
    """Ordered string comparisons read the dictionary once and gather by code:
    they must equal decoding every row on any dictionary order, with absent
    literals and on empty tables, without ever calling ``Column.decode``."""

    @given(_string_filters())
    @example(((), [], "<", (("<", "b"),)))
    @example(((), [], "between", ((">=", "a"), ("<=", "z"))))
    @example((("z", "b", "a"), [2, 0, 1, 1], "<", (("<", "ab"),)))
    @example((("z", "b", "a"), [2, 0, 1, 1], "between", ((">=", "aa"), ("<=", "y"))))
    @settings(max_examples=300, deadline=None)
    def test_matches_decoding_every_row(self, case):
        dictionary, codes, op, conditions = case
        table = _string_table(dictionary, codes)
        expected = _decode_every_row(dictionary, codes, conditions)
        if op == "between":
            expr = between("s", conditions[0][1], conditions[1][1])
        else:
            expr = Comparison("s", op, conditions[0][1])
        with mock.patch.object(Column, "decode", _no_decode):
            masks = [expr.evaluate(table)]
            if op != "between":
                # The join phase's post-join predicates take the same path.
                relation = BoundRelation.from_table("r", table)
                result = IntermediateResult(positions={"r": np.arange(len(codes))})
                term = QualifiedComparison("r", "s", op, conditions[0][1])
                masks.append(result.evaluate_qualified_comparison({"r": relation}, term))
        for mask in masks:
            assert mask.dtype == bool
            assert mask.tolist() == expected

    @pytest.mark.parametrize("case", list(_GRID_CASES))
    @pytest.mark.parametrize("order", list(_GRID_DICTIONARIES))
    @pytest.mark.parametrize("op", [*_PY_COMPARE, "between"])
    def test_filter_grid(self, op, order, case):
        """Every operator and ``BETWEEN`` as a base-table filter, on each
        dictionary order and literal case, without a decode."""
        dictionary, codes, conditions = _grid_case(op, order, case)
        if op == "between":
            expr = between("s", conditions[0][1], conditions[1][1])
        else:
            expr = Comparison("s", op, conditions[0][1])
        with mock.patch.object(Column, "decode", _no_decode):
            mask = expr.evaluate(_string_table(dictionary, codes))
        assert mask.dtype == bool
        assert mask.tolist() == _decode_every_row(dictionary, codes, conditions)

    @pytest.mark.parametrize("case", list(_GRID_CASES))
    @pytest.mark.parametrize("order", list(_GRID_DICTIONARIES))
    @pytest.mark.parametrize("op", list(_PY_COMPARE))
    def test_qualified_grid(self, op, order, case):
        """Every operator as a post-join predicate over gathered rows — out of
        order and repeated, as a join emits them — without a decode."""
        dictionary, codes, conditions = _grid_case(op, order, case)
        positions = np.concatenate(
            [np.arange(len(codes))[::-1], np.arange(0, len(codes), 2)]
        ).astype(np.int64)
        relation = BoundRelation.from_table("r", _string_table(dictionary, codes))
        result = IntermediateResult(positions={"r": positions})
        term = QualifiedComparison("r", "s", op, conditions[0][1])
        with mock.patch.object(Column, "decode", _no_decode):
            mask = result.evaluate_qualified_comparison({"r": relation}, term)
        assert mask.dtype == bool
        gathered = [codes[p] for p in positions]
        assert mask.tolist() == _decode_every_row(dictionary, gathered, conditions)


class TestCompoundPredicates:
    def test_between(self, table):
        assert between("x", 5, 15).evaluate(table).sum() == 3

    def test_isin(self, table):
        assert isin("x", [1, 20, 99]).evaluate(table).sum() == 2

    def test_isin_strings(self, table):
        assert isin("s", ["apple", "cherry"]).evaluate(table).sum() == 2

    def test_string_predicates(self, table):
        assert starts_with("s", "ap").evaluate(table).sum() == 2
        assert ends_with("s", "berry").evaluate(table).sum() == 1
        assert contains("s", "an").evaluate(table).sum() == 1

    def test_string_predicate_on_numeric_raises(self, table):
        with pytest.raises(ExecutionError):
            starts_with("x", "a").evaluate(table)

    def test_and_or_not(self, table):
        expr = and_(gt("x", 1), lt("x", 20))
        assert expr.evaluate(table).sum() == 3
        expr = or_(eq("x", 1), eq("x", 20))
        assert expr.evaluate(table).sum() == 2
        assert not_(eq("x", 1)).evaluate(table).sum() == 4

    def test_operator_overloads(self, table):
        expr = (gt("x", 1) & lt("x", 20)) | eq("x", 1)
        assert expr.evaluate(table).sum() == 4
        assert (~eq("x", 1)).evaluate(table).sum() == 4

    def test_column_ref_and_literal(self, table):
        assert col("x").evaluate(table).tolist() == [1, 5, 10, 15, 20]
        assert lit(7).evaluate(table).tolist() == [7] * 5

    def test_referenced_columns_compound(self, table):
        expr = and_(eq("x", 1), or_(lt("y", 3.0), eq("s", "apple")))
        assert expr.referenced_columns() == frozenset({"x", "y", "s"})


class TestSelectivity:
    def test_none_is_one(self):
        assert estimate_selectivity(None) == 1.0

    def test_equality_uses_distinct_counts(self):
        stats = TableStatistics(num_rows=1000, distinct_counts={"x": 50})
        assert estimate_selectivity(eq("x", 1), stats) == pytest.approx(1 / 50)

    def test_equality_default(self):
        assert estimate_selectivity(eq("x", 1)) == pytest.approx(0.1)

    def test_conjunction_multiplies(self):
        stats = TableStatistics(num_rows=1000, distinct_counts={"x": 10, "y": 10})
        sel = estimate_selectivity(and_(eq("x", 1), eq("y", 2)), stats)
        assert sel == pytest.approx(0.01)

    def test_disjunction_inclusion_exclusion(self):
        stats = TableStatistics(num_rows=100, distinct_counts={"x": 2})
        sel = estimate_selectivity(or_(eq("x", 1), eq("x", 2)), stats)
        assert sel == pytest.approx(0.75)

    def test_not_complements(self):
        stats = TableStatistics(num_rows=100, distinct_counts={"x": 4})
        assert estimate_selectivity(not_(eq("x", 1)), stats) == pytest.approx(0.75)

    def test_in_list_scales_with_values(self):
        stats = TableStatistics(num_rows=100, distinct_counts={"x": 10})
        assert estimate_selectivity(isin("x", [1, 2, 3]), stats) == pytest.approx(0.3)

    def test_clamped_to_unit_interval(self):
        stats = TableStatistics(num_rows=10, distinct_counts={"x": 1})
        assert 0.0 <= estimate_selectivity(isin("x", list(range(100))), stats) <= 1.0

    def test_range_default(self):
        assert estimate_selectivity(lt("x", 5)) == pytest.approx(1 / 3)
        assert estimate_selectivity(between("x", 1, 2)) == pytest.approx(0.25)
