"""Runtime relation representations used by the transfer and join phases.

Two representations are used:

* :class:`BoundRelation` — a base-table occurrence after base-filter
  application and (possibly) semi-join reduction.  It keeps the underlying
  :class:`~repro.storage.table.Table` plus the positions of the surviving
  rows, so reductions are cheap (index filtering) and columns are gathered
  lazily.  A relation that is still the whole table — no filter, or one that
  kept every row — is the *identity* selection and holds no row-id vector
  (``row_indices is None``): its values are **read-only views** of the base
  columns, not ``data[arange(n)]`` copies.  Arrays a relation returns are
  read-only by contract; the identity case enforces it.

* :class:`IntermediateResult` — the output of the join phase so far,
  represented *late-materialized*: for every participating relation alias it
  stores an array of row positions into that relation's BoundRelation.  A
  binary join therefore only produces index vectors; real column values are
  only gathered when a join key or the final aggregate needs them — in one
  hop from an identity relation, otherwise through the shorter of the two
  index vectors first.  A result that is still one relation's rows in order
  (:meth:`IntermediateResult.from_relation`) holds no positions either
  (``positions[alias] is None``): its gathers read the relation's own
  values, a view or one ``take``, and its first ``take`` / ``merge`` stores
  the selector itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.expr.expressions import string_order_mask
from repro.query import QualifiedComparison
from repro.storage.datatypes import DataType
from repro.storage.table import Table


@dataclass
class BoundRelation:
    """A base-table occurrence bound into a query execution.

    Attributes
    ----------
    alias:
        The relation alias within the query.
    table:
        The underlying catalog table.
    row_indices:
        Positions of the surviving rows within ``table`` (after base filters
        and any semi-join reductions applied so far); ``None`` while the
        relation is still the whole table.  Never mutated, only replaced.
    version:
        Monotonic counter bumped by every in-place reduction.  Executors use
        it to invalidate cached :class:`~repro.exec.kernels.HashIndex`
        objects built over this relation's key columns.
    """

    alias: str
    table: Table
    row_indices: Optional[np.ndarray] = None
    version: int = 0

    @classmethod
    def from_table(cls, alias: str, table: Table, mask: Optional[np.ndarray] = None) -> "BoundRelation":
        """Bind a table, optionally pre-filtered by a boolean mask."""
        relation = cls(alias=alias, table=table)
        if mask is not None:
            relation._select(np.flatnonzero(np.asarray(mask, dtype=bool)))
        return relation

    @property
    def num_rows(self) -> int:
        """Number of surviving rows."""
        if self.row_indices is None:
            return self.table.num_rows
        return int(self.row_indices.shape[0])

    def row_ids(self) -> np.ndarray:
        """``row_indices``, materialized for an identity relation too (not hot-path)."""
        if self.row_indices is None:
            return np.arange(self.table.num_rows, dtype=np.int64)
        return self.row_indices

    def key_data(self, column: str) -> np.ndarray:
        """The whole base buffer of join-key ``column`` (integer-backed only)."""
        col = self.table.column(column)
        if not col.dtype.is_integer_backed:
            raise ExecutionError(
                f"column {column!r} of {self.table.name!r} is not integer-backed; "
                "only integer-backed columns can be join keys"
            )
        return col.data

    def key_values(self, column: str) -> np.ndarray:
        """Physical (integer-encoded) values of ``column`` for the surviving rows."""
        self.key_data(column)
        return self.column_values(column)

    def column_values(self, column: str) -> np.ndarray:
        """Physical values of any column for the surviving rows (read-only)."""
        data = self.table.column(column).data
        if self.row_indices is None:
            values = data.view()
            values.flags.writeable = False
            return values
        return data.take(self.row_indices)

    def keep(self, mask: np.ndarray) -> None:
        """Reduce the relation in place: keep rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_rows:
            raise ExecutionError(
                f"semi-join mask length {mask.shape[0]} does not match relation size {self.num_rows}"
            )
        self._select(np.flatnonzero(mask))
        self.version += 1

    def _select(self, kept: np.ndarray) -> None:
        """Narrow to the ``kept`` positions of the current selection: a ``take``
        costs the rows kept, where a boolean fancy-index costs the rows scanned."""
        if self.row_indices is not None:
            self.row_indices = self.row_indices.take(kept)
        elif kept.shape[0] != self.table.num_rows:
            self.row_indices = kept

    def snapshot(self) -> "BoundRelation":
        """An independent copy (used to rerun the join phase with multiple orders)."""
        return BoundRelation(self.alias, self.table, self.row_indices, self.version)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundRelation({self.alias!r}, rows={self.num_rows})"


@dataclass
class IntermediateResult:
    """Late-materialized join result: per-alias row positions of equal length.

    ``None`` positions are the identity over ``identity_rows`` rows: tuple
    ``i`` is the relation's ``i``-th surviving row.  Only a result started
    by :meth:`from_relation` — one alias — holds them.
    """

    positions: Dict[str, Optional[np.ndarray]] = field(default_factory=dict)
    identity_rows: int = 0

    @classmethod
    def from_relation(cls, relation: BoundRelation) -> "IntermediateResult":
        """Start an intermediate result from a single (reduced) relation."""
        return cls(positions={relation.alias: None}, identity_rows=relation.num_rows)

    @property
    def num_rows(self) -> int:
        """Number of joined tuples represented."""
        for positions in self.positions.values():
            return self.identity_rows if positions is None else int(positions.shape[0])
        return 0

    @property
    def aliases(self) -> frozenset[str]:
        """Relations already joined into this result."""
        return frozenset(self.positions)

    def column_values(self, relations: Dict[str, BoundRelation], alias: str, column: str) -> np.ndarray:
        """Gather the physical values of ``alias.column`` for every joined tuple."""
        if alias not in self.positions:
            raise ExecutionError(f"intermediate result does not contain relation {alias!r}")
        positions = self.positions[alias]
        relation = relations[alias]
        if positions is None:
            return relation.column_values(column)
        data = relation.table.column(column).data
        rows = relation.row_indices
        if rows is None:
            return data.take(positions)
        if positions.shape[0] < rows.shape[0]:
            return data.take(rows.take(positions))
        return data.take(rows).take(positions)

    def take(self, row_selector: np.ndarray) -> "IntermediateResult":
        """Gather a subset / reordering of the joined tuples (integer positions)."""
        return IntermediateResult(
            positions={alias: _select(pos, row_selector) for alias, pos in self.positions.items()}
        )

    def merge(
        self,
        other: "IntermediateResult",
        self_selector: np.ndarray,
        other_selector: np.ndarray,
    ) -> "IntermediateResult":
        """Combine two results after a join matched ``self_selector`` with ``other_selector``."""
        overlap = self.aliases & other.aliases
        if overlap:
            raise ExecutionError(f"cannot merge intermediate results sharing relations {sorted(overlap)}")
        merged: Dict[str, np.ndarray] = {}
        for alias, pos in self.positions.items():
            merged[alias] = _select(pos, self_selector)
        for alias, pos in other.positions.items():
            merged[alias] = _select(pos, other_selector)
        return IntermediateResult(positions=merged)

    def evaluate_qualified_comparison(
        self,
        relations: Dict[str, BoundRelation],
        term: QualifiedComparison,
    ) -> np.ndarray:
        """Evaluate one qualified comparison over the joined tuples."""
        column = relations[term.alias].table.column(term.column)
        values = self.column_values(relations, term.alias, term.column)
        if column.dtype is DataType.STRING and term.op not in ("==", "!="):
            return string_order_mask(column, values, ((term.op, term.value),))
        return _compare(values, term.op, column.encode_literal(term.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntermediateResult(aliases={sorted(self.positions)}, rows={self.num_rows})"


def _select(positions: Optional[np.ndarray], selector: np.ndarray) -> np.ndarray:
    """``positions[selector]``; over the identity, the selector itself."""
    return selector if positions is None else positions[selector]


def _compare(values: np.ndarray, op: str, rhs) -> np.ndarray:
    if op == "==":
        return values == rhs
    if op == "!=":
        return values != rhs
    if op == "<":
        return values < rhs
    if op == "<=":
        return values <= rhs
    if op == ">":
        return values > rhs
    if op == ">=":
        return values >= rhs
    raise ExecutionError(f"unsupported comparison operator {op!r}")
