"""Column: a named, typed, immutable vector of values.

A :class:`Column` wraps a NumPy array together with a logical
:class:`~repro.storage.datatypes.DataType`.  String columns are dictionary
encoded: ``data`` holds ``int64`` codes and ``dictionary`` holds the distinct
string values, so joins and filters on strings operate on integer arrays.

Columns are value objects: operations such as :meth:`take` and
:meth:`filter` return new columns and never mutate the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.datatypes import DataType, coerce_to_numpy, infer_datatype


@dataclass(frozen=True)
class Column:
    """A named, typed column backed by a NumPy array.

    Attributes
    ----------
    name:
        Column name, unique within its table.
    dtype:
        Logical datatype.
    data:
        Physical NumPy array.  For ``STRING`` columns this is the ``int64``
        dictionary-code array.
    dictionary:
        For ``STRING`` columns, the list of distinct values such that
        ``dictionary[code]`` recovers the original string.  ``None`` for all
        other types.
    """

    name: str
    dtype: DataType
    data: np.ndarray
    dictionary: Optional[tuple[str, ...]] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.dtype is DataType.STRING and self.dictionary is None:
            raise SchemaError(f"string column {self.name!r} requires a dictionary")
        if self.dtype is not DataType.STRING and self.dictionary is not None:
            raise SchemaError(f"non-string column {self.name!r} must not carry a dictionary")
        if self.data.ndim != 1:
            raise SchemaError(f"column {self.name!r} data must be one-dimensional")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        name: str,
        values: Sequence[Any] | np.ndarray,
        dtype: Optional[DataType] = None,
    ) -> "Column":
        """Build a column from raw Python / NumPy values.

        Strings are dictionary-encoded.  ``dtype`` may be supplied to force a
        specific logical type (e.g. ``DATE`` for integers representing days).
        """
        inferred = dtype or infer_datatype(values)
        if inferred is DataType.STRING:
            str_values = [str(v) for v in np.asarray(values, dtype=object)]
            uniques = sorted(set(str_values))
            code_of = {v: i for i, v in enumerate(uniques)}
            codes = np.fromiter((code_of[v] for v in str_values), dtype=np.int64, count=len(str_values))
            return cls(name=name, dtype=inferred, data=codes, dictionary=tuple(uniques))
        return cls(name=name, dtype=inferred, data=coerce_to_numpy(values, inferred))

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, dictionary: Sequence[str]) -> "Column":
        """Build a string column from codes into a (not necessarily sorted) dictionary.
        Entries must be distinct (:meth:`encode_literal` finds the first); codes index them."""
        data = np.asarray(codes, dtype=np.int64)
        dictionary = tuple(dictionary)
        if len(set(dictionary)) != len(dictionary):
            raise SchemaError(f"string column {name!r} has duplicate dictionary entries")
        if len(data) and (data.min() < 0 or data.max() >= len(dictionary)):
            raise SchemaError(f"string column {name!r} has codes outside its dictionary")
        return cls(name=name, dtype=DataType.STRING, data=data, dictionary=dictionary)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_rows(self) -> int:
        """Number of rows in the column."""
        return len(self)

    def distinct_count(self) -> int:
        """Number of distinct values (exact).  Integers spanning at most 8 values a row
        (``HashIndex.table_worthwhile``'s economics, capped at 64 Mi) fill a presence table."""
        if len(self) == 0:
            return 0
        if np.issubdtype(self.data.dtype, np.integer):
            # Same-width signed view: a bijection, so the count is unchanged.
            values = self.data.astype(np.int64, copy=False)
            lo = int(values.min())
            span = int(values.max()) - lo + 1
            if span <= min(max(1 << 16, 8 * len(values)), 1 << 26):
                present = np.zeros(span, dtype=bool)
                present[values - lo] = True
                return int(np.count_nonzero(present))
        return int(np.unique(self.data).shape[0])

    def min_max(self) -> tuple[Any, Any]:
        """Return the (decoded) minimum and maximum values in the column."""
        if len(self) == 0:
            raise SchemaError(f"column {self.name!r} is empty; min/max undefined")
        lo, hi = self.data.min(), self.data.max()
        if self.dtype is DataType.STRING:
            assert self.dictionary is not None
            return self.dictionary[int(lo)], self.dictionary[int(hi)]
        return lo, hi

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def decode(self) -> np.ndarray:
        """Return the column with strings decoded back to Python objects.

        For non-string columns this is simply the underlying array.
        """
        if self.dtype is DataType.STRING:
            assert self.dictionary is not None
            lookup = np.asarray(self.dictionary, dtype=object)
            return lookup[self.data]
        return self.data

    def to_list(self) -> list[Any]:
        """Return the column as a plain Python list of decoded values."""
        return self.decode().tolist()

    def encode_literal(self, value: Any) -> Any:
        """Translate a literal into the physical domain of this column.

        For string columns the literal is mapped to its dictionary code; a
        value absent from the dictionary maps to ``-1`` which can never match
        any stored code (codes are non-negative).
        """
        if self.dtype is DataType.STRING:
            assert self.dictionary is not None
            try:
                return self.dictionary.index(str(value))
            except ValueError:
                return -1
        return value

    # ------------------------------------------------------------------
    # Transformations (all return new columns)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position."""
        return Column(
            name=self.name,
            dtype=self.dtype,
            data=self.data[indices],
            dictionary=self.dictionary,
        )

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        return Column(
            name=self.name,
            dtype=self.dtype,
            data=self.data[mask],
            dictionary=self.dictionary,
        )

    def rename(self, name: str) -> "Column":
        """Return a copy of the column under a new name."""
        return Column(name=name, dtype=self.dtype, data=self.data, dictionary=self.dictionary)

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same name and type."""
        if self.dtype is not other.dtype:
            raise SchemaError(
                f"cannot concat columns of different types: {self.dtype} vs {other.dtype}"
            )
        if self.dtype is DataType.STRING:
            merged, left_codes, right_codes = _merge_dictionaries(self, other)
            return Column(
                name=self.name,
                dtype=self.dtype,
                data=np.concatenate([left_codes, right_codes]),
                dictionary=merged,
            )
        return Column(
            name=self.name,
            dtype=self.dtype,
            data=np.concatenate([self.data, other.data]),
            dictionary=None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, {self.dtype.value}, n={len(self)})"


def _merge_dictionaries(left: Column, right: Column) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Merge the dictionaries of two string columns and re-map their codes."""
    assert left.dictionary is not None and right.dictionary is not None
    merged = sorted(set(left.dictionary) | set(right.dictionary))
    code_of = {v: i for i, v in enumerate(merged)}
    left_map = np.asarray([code_of[v] for v in left.dictionary], dtype=np.int64)
    right_map = np.asarray([code_of[v] for v in right.dictionary], dtype=np.int64)
    left_codes = left_map[left.data] if len(left) else left.data
    right_codes = right_map[right.data] if len(right) else right.data
    return tuple(merged), left_codes, right_codes


def concat_columns(columns: Iterable[Column]) -> Column:
    """Concatenate an iterable of compatible columns into one."""
    columns = list(columns)
    if not columns:
        raise SchemaError("concat_columns requires at least one column")
    result = columns[0]
    for col in columns[1:]:
        result = result.concat(col)
    return result
