"""Scalar expressions evaluated over tables.

Expressions form a small tree language used for base-table filter predicates
and (in a limited form) aggregate inputs.  Every expression evaluates
vectorized against a :class:`~repro.storage.table.Table` and returns a NumPy
array (boolean arrays for predicates).

The supported surface is deliberately the subset that analytical benchmark
filters need: column references, literals, comparisons, BETWEEN, IN,
LIKE-prefix/contains on strings, arithmetic, and AND/OR/NOT combinations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.storage.column import Column
from repro.storage.datatypes import DataType
from repro.storage.table import Table


class Expression(abc.ABC):
    """Base class for all scalar expressions."""

    @abc.abstractmethod
    def evaluate(self, table: Table) -> np.ndarray:
        """Evaluate the expression against every row of ``table``."""

    @abc.abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of the columns this expression reads."""

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Expression") -> "And":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column of the table being evaluated."""

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        return table.column(self.name).data

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, table: Table) -> np.ndarray:
        return np.full(table.num_rows, self.value)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_COMPARATORS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def string_order_mask(
    column: Column, codes: np.ndarray, conditions: Iterable[Tuple[str, Any]]
) -> np.ndarray:
    """Which of ``codes`` name a string satisfying every ``(op, literal)`` comparison.

    Each comparison runs once over the dictionary of string column
    ``column``, and the combined booleans are gathered by code — one pass
    over the distinct strings plus one gather, never a decode of the rows.
    Codes carry no order, so this is right for any dictionary
    (:meth:`~repro.storage.column.Column.from_codes` need not be sorted).
    """
    assert column.dictionary is not None
    entries = np.asarray(column.dictionary, dtype=str)
    lookup = np.ones(entries.shape[0], dtype=bool)
    for op, value in conditions:
        compare = _COMPARATORS.get(op)
        if compare is None:
            raise ExecutionError(f"unsupported comparison operator: {op!r}")
        lookup &= compare(entries, str(value))
    return lookup[codes]


@dataclass(frozen=True)
class Comparison(Expression):
    """``column <op> literal`` comparison.

    The right-hand side must be a literal so that string literals can be
    translated into dictionary codes of the referenced column.
    """

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExecutionError(f"unsupported comparison operator: {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if col.dtype is DataType.STRING and self.op not in ("==", "!="):
            return string_order_mask(col, col.data, ((self.op, self.value),))
        return _COMPARATORS[self.op](col.data, col.encode_literal(self.value))

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


@dataclass(frozen=True)
class Between(Expression):
    """``low <= column <= high`` (inclusive on both ends)."""

    column: str
    low: Any
    high: Any

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if col.dtype is DataType.STRING:
            return string_order_mask(col, col.data, ((">=", self.low), ("<=", self.high)))
        return (col.data >= self.low) & (col.data <= self.high)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} BETWEEN {self.low!r} AND {self.high!r})"


@dataclass(frozen=True)
class InList(Expression):
    """``column IN (v1, v2, ...)``.

    Membership is evaluated through the engine's sorted-membership kernel
    (:func:`repro.exec.kernels.semi_join_mask`) rather than ``np.isin``: for
    integer-backed columns — ids and dictionary-coded strings, i.e. every
    IN-list in the benchmark workloads — the kernel's bounded-domain bitmap
    makes the scan one table gather per row instead of an O(n·m) (or
    sort-everything) comparison against the whole value list.
    """

    column: str
    values: tuple[Any, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        # Imported lazily: the expression language is imported by the query
        # layer, which the kernel module's package initializer depends on.
        from repro.exec.kernels import semi_join_mask

        col = table.column(self.column)
        if not self.values:
            return np.zeros(table.num_rows, dtype=bool)
        encoded = np.asarray([col.encode_literal(v) for v in self.values])
        return semi_join_mask(col.data, encoded)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} IN {self.values!r})"


@dataclass(frozen=True)
class StringPredicate(Expression):
    """String pattern predicates: prefix, suffix, and contains.

    These model the ``LIKE 'x%'`` / ``LIKE '%x'`` / ``LIKE '%x%'`` predicates
    that appear throughout JOB and TPC-DS.
    """

    column: str
    mode: str  # "prefix" | "suffix" | "contains"
    pattern: str

    def __post_init__(self) -> None:
        if self.mode not in ("prefix", "suffix", "contains"):
            raise ExecutionError(f"unsupported string predicate mode: {self.mode!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if col.dtype is not DataType.STRING:
            raise ExecutionError(
                f"string predicate on non-string column {self.column!r} of {table.name!r}"
            )
        assert col.dictionary is not None
        # Evaluate the predicate once per dictionary entry, then gather.
        if self.mode == "prefix":
            dict_mask = np.asarray([v.startswith(self.pattern) for v in col.dictionary])
        elif self.mode == "suffix":
            dict_mask = np.asarray([v.endswith(self.pattern) for v in col.dictionary])
        else:
            dict_mask = np.asarray([self.pattern in v for v in col.dictionary])
        return dict_mask[col.data]

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} {self.mode} {self.pattern!r})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``column IS [NOT] NULL``.

    The columnar storage has no NULL representation (every generator fills
    every column), so ``IS NULL`` is uniformly false and ``IS NOT NULL``
    uniformly true.  The node exists so SQL queries carrying the standard
    NULL guards (JOB is full of ``note IS NOT NULL``) execute — and
    round-trip through the formatter — unchanged.
    """

    column: str
    negated: bool = False

    def evaluate(self, table: Table) -> np.ndarray:
        table.column(self.column)  # existence check: raise on unknown column
        if self.negated:
            return np.ones(table.num_rows, dtype=bool)
        return np.zeros(table.num_rows, dtype=bool)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        return f"({self.column} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class And(Expression):
    """Logical conjunction of predicates."""

    operands: tuple[Expression, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.operands:
            return np.ones(table.num_rows, dtype=bool)
        result = self.operands[0].evaluate(table).astype(bool)
        for operand in self.operands[1:]:
            result &= operand.evaluate(table).astype(bool)
        return result

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(o.referenced_columns() for o in self.operands)) if self.operands else frozenset()

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.operands)) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """Logical disjunction of predicates."""

    operands: tuple[Expression, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.operands:
            return np.zeros(table.num_rows, dtype=bool)
        result = self.operands[0].evaluate(table).astype(bool)
        for operand in self.operands[1:]:
            result |= operand.evaluate(table).astype(bool)
        return result

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(o.referenced_columns() for o in self.operands)) if self.operands else frozenset()

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.operands)) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation of a predicate."""

    operand: Expression

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.operand.evaluate(table).astype(bool)

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


# ---------------------------------------------------------------------------
# Convenience constructors — these read naturally at query-definition sites.
# ---------------------------------------------------------------------------
def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(column: str, value: Any) -> Comparison:
    """``column == value``."""
    return Comparison(column, "==", value)


def ne(column: str, value: Any) -> Comparison:
    """``column != value``."""
    return Comparison(column, "!=", value)


def lt(column: str, value: Any) -> Comparison:
    """``column < value``."""
    return Comparison(column, "<", value)


def le(column: str, value: Any) -> Comparison:
    """``column <= value``."""
    return Comparison(column, "<=", value)


def gt(column: str, value: Any) -> Comparison:
    """``column > value``."""
    return Comparison(column, ">", value)


def ge(column: str, value: Any) -> Comparison:
    """``column >= value``."""
    return Comparison(column, ">=", value)


def between(column: str, low: Any, high: Any) -> Between:
    """``low <= column <= high``."""
    return Between(column, low, high)


def isin(column: str, values: Sequence[Any]) -> InList:
    """``column IN values``."""
    return InList(column, tuple(values))


def starts_with(column: str, prefix: str) -> StringPredicate:
    """``column LIKE 'prefix%'``."""
    return StringPredicate(column, "prefix", prefix)


def ends_with(column: str, suffix: str) -> StringPredicate:
    """``column LIKE '%suffix'``."""
    return StringPredicate(column, "suffix", suffix)


def contains(column: str, pattern: str) -> StringPredicate:
    """``column LIKE '%pattern%'``."""
    return StringPredicate(column, "contains", pattern)


def is_null(column: str) -> IsNull:
    """``column IS NULL``."""
    return IsNull(column)


def is_not_null(column: str) -> IsNull:
    """``column IS NOT NULL``."""
    return IsNull(column, negated=True)


def and_(*operands: Expression) -> And:
    """Conjunction of an arbitrary number of predicates."""
    return And(tuple(operands))


def or_(*operands: Expression) -> Or:
    """Disjunction of an arbitrary number of predicates."""
    return Or(tuple(operands))


def not_(operand: Expression) -> Not:
    """Negation of a predicate."""
    return Not(operand)
