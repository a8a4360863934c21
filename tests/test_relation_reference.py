"""``BoundRelation`` against an explicit-``arange`` reference.

A bound relation that is still the whole table holds no row-id vector and
hands out read-only views of the base columns; every other state holds the
surviving positions and compresses them through ``flatnonzero`` + ``take``.
:class:`ReferenceRelation` is the representation that preceded it — always a
materialized ``int64`` vector, reduced by boolean fancy-indexing — and the
property test drives both through the same random sequence of operations,
requiring equal arrays, equal dtypes and equal version counters after every
step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.relation import BoundRelation, IntermediateResult
from repro.storage.datatypes import DataType
from repro.storage.table import Table

COLUMNS = ("k", "v", "s")


class ReferenceRelation:
    """Always-materialized row ids; every access is ``data[rows]``."""

    def __init__(self, table: Table, mask=None, rows=None, version: int = 0) -> None:
        self.table = table
        if rows is None:
            rows = np.arange(table.num_rows, dtype=np.int64)
            if mask is not None:
                rows = rows[np.asarray(mask, dtype=bool)]
        self.rows = rows
        self.version = version

    def values(self, column: str) -> np.ndarray:
        return self.table.column(column).data[self.rows]

    def keep(self, mask: np.ndarray) -> None:
        self.rows = self.rows[np.asarray(mask, dtype=bool)]
        self.version += 1

    def snapshot(self) -> "ReferenceRelation":
        return ReferenceRelation(self.table, rows=self.rows.copy(), version=self.version)

    def joined_values(self, column: str, positions: np.ndarray) -> np.ndarray:
        return self.values(column)[positions]


def _table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        "t",
        {
            "k": rng.integers(-50, 50, size=num_rows).astype(np.int64),
            "v": rng.random(num_rows),
            "s": [f"s{i % 7}" for i in range(num_rows)],
        },
        # Named, not inferred: an empty table has no values to infer from.
        dtypes={"k": DataType.INT64, "v": DataType.FLOAT64, "s": DataType.STRING},
    )


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def _agree(relation: BoundRelation, reference: ReferenceRelation) -> None:
    assert relation.num_rows == reference.rows.shape[0]
    assert relation.version == reference.version
    # Strictly increasing row ids: the selection is the whole table exactly
    # when it is as long as the table, and only then is there no vector.
    assert (relation.row_indices is None) == (reference.rows.shape[0] == relation.table.num_rows)
    _same(relation.row_ids(), reference.rows)
    for column in COLUMNS:
        values = relation.column_values(column)
        _same(values, reference.values(column))
        if relation.row_indices is None:
            assert not values.flags.writeable
    _same(relation.key_values("k"), reference.values("k"))


def _mask(data, length: int) -> np.ndarray:
    kind = data.draw(st.sampled_from(("random", "all", "none")))
    if kind == "random":
        return np.asarray(data.draw(st.lists(st.booleans(), min_size=length, max_size=length)), dtype=bool)
    return np.full(length, kind == "all", dtype=bool)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_bound_relation_matches_explicit_arange_reference(data):
    num_rows = data.draw(st.sampled_from((0, 1, 2, 9, 30)))
    table = _table(num_rows, seed=data.draw(st.integers(0, 3)))
    mask = _mask(data, num_rows) if data.draw(st.booleans()) else None  # filtered / identity start
    relation = BoundRelation.from_table("r", table, mask)
    reference = ReferenceRelation(table, mask)
    _agree(relation, reference)
    for _ in range(data.draw(st.integers(0, 6))):
        step = data.draw(st.sampled_from(("keep", "snapshot", "join")))
        if step == "keep":
            keep = _mask(data, relation.num_rows)
            relation.keep(keep)
            reference.keep(keep)
        elif step == "snapshot":
            # Carry on with the copies; the originals must not move with them.
            before = (relation, relation.row_ids().copy(), relation.version)
            relation, reference = relation.snapshot(), reference.snapshot()
            keep = _mask(data, relation.num_rows)
            relation.keep(keep)
            reference.keep(keep)
            _same(before[0].row_ids(), before[1])
            assert before[0].version == before[2]
        else:
            # Positions shorter and longer than the relation, repeats included.
            rows = relation.num_rows
            length = data.draw(st.sampled_from((0, 1, rows // 2, rows, 2 * rows + 3))) if rows else 0
            positions = np.asarray(
                data.draw(st.lists(st.integers(0, max(rows - 1, 0)), min_size=length, max_size=length)),
                dtype=np.int64,
            )
            result = IntermediateResult(positions={"r": positions})
            for column in COLUMNS:
                _same(
                    result.column_values({"r": relation}, "r", column),
                    reference.joined_values(column, positions),
                )
        _agree(relation, reference)


def test_identity_values_are_read_only_views_of_the_base_column():
    table = _table(12, seed=0)
    relation = BoundRelation.from_table("r", table)
    for values in (relation.key_values("k"), relation.column_values("v")):
        assert not values.flags.owndata and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1
        with pytest.raises(ValueError):
            values += 1
    assert np.shares_memory(relation.key_values("k"), table.column("k").data)
    # A filter that keeps every row leaves the identity in place ...
    relation.keep(np.ones(12, dtype=bool))
    assert relation.row_indices is None and relation.version == 1
    # ... and a reduced relation gathers fresh arrays, as it always did.
    relation.keep(np.arange(12) % 2 == 0)
    assert not np.shares_memory(relation.key_values("k"), table.column("k").data)
