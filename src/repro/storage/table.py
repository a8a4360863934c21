"""Table: a named collection of equal-length columns.

Tables are the unit registered in the :class:`~repro.storage.catalog.Catalog`
and scanned by the execution layer.  Like columns they are immutable value
objects: every transformation returns a new :class:`Table`.

A table optionally records *key metadata* — which columns form its primary
key and which columns reference other tables — because the Robust Predicate
Transfer module uses primary-key/foreign-key information to prune trivial
semi-joins (§4.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.column import Column
from repro.storage.datatypes import DataType


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference from one column to a column of another table."""

    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class Table:
    """An immutable, named, columnar table.

    Attributes
    ----------
    name:
        Table name, unique within a catalog.
    columns:
        Ordered mapping of column name to :class:`Column`.
    primary_key:
        Names of columns forming the primary key, if any.
    foreign_keys:
        Declared foreign-key references.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())
    foreign_keys: tuple[ForeignKey, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"table {self.name!r} has columns of differing lengths: {lengths}")
        known = set(names)
        for key_col in self.primary_key:
            if key_col not in known:
                raise SchemaError(f"primary key column {key_col!r} not in table {self.name!r}")
        for fk in self.foreign_keys:
            if fk.column not in known:
                raise SchemaError(f"foreign key column {fk.column!r} not in table {self.name!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        name: str,
        data: Mapping[str, Sequence[Any] | np.ndarray],
        dtypes: Optional[Mapping[str, DataType]] = None,
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> "Table":
        """Build a table from a mapping of column name to values."""
        dtypes = dict(dtypes or {})
        columns = tuple(
            Column.from_values(col_name, values, dtype=dtypes.get(col_name))
            for col_name, values in data.items()
        )
        return cls(
            name=name,
            columns=columns,
            primary_key=tuple(primary_key),
            foreign_keys=tuple(foreign_keys),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return len(self.columns[0])

    @property
    def num_columns(self) -> int:
        """Number of columns in the table."""
        return len(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Ordered column names."""
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        """Return the column with the given name.

        Raises
        ------
        SchemaError
            If no column with that name exists.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """True when the table contains a column with that name."""
        return any(c.name == name for c in self.columns)

    def is_foreign_key(self, column: str) -> bool:
        """True when ``column`` is declared as a foreign key of this table."""
        return any(fk.column == column for fk in self.foreign_keys)

    def is_primary_key(self, column: str) -> bool:
        """True when ``column`` is (part of) the primary key of this table."""
        return column in self.primary_key

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position."""
        return Table(
            name=self.name,
            columns=tuple(c.take(indices) for c in self.columns),
            primary_key=self.primary_key,
            foreign_keys=self.foreign_keys,
        )

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where ``mask`` is True."""
        return Table(
            name=self.name,
            columns=tuple(c.filter(mask) for c in self.columns),
            primary_key=self.primary_key,
            foreign_keys=self.foreign_keys,
        )

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto a subset of columns, preserving the given order."""
        return Table(
            name=self.name,
            columns=tuple(self.column(n) for n in names),
            primary_key=tuple(k for k in self.primary_key if k in names),
            foreign_keys=tuple(fk for fk in self.foreign_keys if fk.column in names),
        )

    def rename(self, name: str) -> "Table":
        """Return the same table under a new name."""
        return Table(
            name=name,
            columns=self.columns,
            primary_key=self.primary_key,
            foreign_keys=self.foreign_keys,
        )

    def head(self, n: int = 5) -> "Table":
        """Return the first ``n`` rows (useful in examples and docs)."""
        return self.take(np.arange(min(n, self.num_rows)))

    def to_dict(self) -> dict[str, list[Any]]:
        """Return the table as a plain dict of decoded Python lists."""
        return {c.name: c.to_list() for c in self.columns}

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the table's column data."""
        return int(sum(c.data.nbytes for c in self.columns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={list(self.column_names)})"
