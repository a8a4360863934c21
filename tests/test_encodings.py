"""Block encodings: selection rules, lossless round-trips, zone-map skips.

The contract under test: every encoding :func:`choose_encoding` picks is
lossless (``decode`` reproduces the physical ``int64`` values bit-for-bit,
with or without a selection), the chooser only encodes when it wins at
least :data:`MIN_COMPRESSION_RATIO`, zone maps skip a block *iff* no row
in it can match, and the catalog's :class:`EncodingStore` never serves a
stale encoding across a table replace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.expr import and_, between, codespace, contains, eq, isin, lt, not_
from repro.storage.column import Column
from repro.storage.encodings import (
    MAX_DICT_NDV,
    MIN_COMPRESSION_RATIO,
    EncodedColumn,
    choose_encoding,
)
from repro.storage.zonemap import DEFAULT_BLOCK_ROWS, ZoneMap


def _encode(values, **kwargs) -> EncodedColumn:
    encoded = choose_encoding(Column.from_values("x", values), **kwargs)
    assert encoded is not None
    return encoded


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------
class TestChooseEncoding:
    def test_sorted_low_cardinality_picks_rle(self):
        values = np.repeat(np.arange(8, dtype=np.int64), 1000)
        encoded = _encode(values)
        assert encoded.encoding == "rle"
        assert encoded.codes.shape[0] == 8  # one run per distinct value
        assert encoded.token == "rle:r8"

    def test_narrow_range_picks_pack(self):
        rng = np.random.default_rng(1)
        values = rng.integers(10_000, 10_200, size=4000, dtype=np.int64)
        encoded = _encode(values)
        assert encoded.encoding == "pack"
        assert encoded.codes.dtype == np.uint8
        assert encoded.base == int(values.min())
        assert encoded.token.startswith("pack:u8:b")

    def test_low_ndv_wide_domain_picks_dict(self):
        rng = np.random.default_rng(2)
        domain = rng.integers(-(2**60), 2**60, size=50, dtype=np.int64)
        values = domain[rng.integers(0, 50, size=4000)]
        encoded = _encode(values)
        assert encoded.encoding == "dict"
        assert encoded.codes.dtype == np.uint8
        assert np.array_equal(encoded.values, np.unique(values))

    def test_high_entropy_wide_domain_stays_raw(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-(2**60), 2**60, size=4000, dtype=np.int64)
        assert choose_encoding(Column.from_values("x", values)) is None

    def test_marginal_compression_stays_raw(self):
        # 33-bit range: packing needs int64 anyway; high NDV kills dict/rle.
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1 << 33, size=4000, dtype=np.int64)
        assert choose_encoding(Column.from_values("x", values)) is None

    def test_float_and_empty_stay_raw(self):
        assert choose_encoding(Column.from_values("x", [1.5, 2.5])) is None
        empty = Column.from_values("x", [1]).filter(np.array([False]))
        assert choose_encoding(empty) is None

    def test_ndv_estimate_over_dict_limit_falls_back_to_pack(self):
        # Caller claims a tiny NDV, but the true dictionary is too large:
        # the exact pass must detect it and fall back to bit-packing.
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1 << 20, size=2 * MAX_DICT_NDV, dtype=np.int64)
        encoded = choose_encoding(Column.from_values("x", values), distinct_count=10)
        assert encoded is not None
        assert encoded.encoding == "pack"

    def test_string_column_codes_are_encodable(self):
        values = ["apple", "banana", "cherry"] * 500
        encoded = _encode(values)
        assert encoded.encoding in ("pack", "dict", "rle")
        col = Column.from_values("x", values)
        np.testing.assert_array_equal(encoded.decode(), col.data)

    def test_compression_ratio_floor_holds(self):
        for values in (
            np.repeat(np.arange(8, dtype=np.int64), 1000),
            np.random.default_rng(6).integers(0, 100, size=4000, dtype=np.int64),
        ):
            encoded = _encode(values)
            assert encoded.encoded_bytes * MIN_COMPRESSION_RATIO <= encoded.logical_bytes


# ---------------------------------------------------------------------------
# Lossless round-trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng, n: np.sort(rng.integers(0, 20, size=n, dtype=np.int64)),  # rle
            lambda rng, n: rng.integers(-50, 50, size=n, dtype=np.int64),  # pack
            lambda rng, n: rng.choice(  # dict
                rng.integers(-(2**60), 2**60, size=30, dtype=np.int64), size=n
            ),
        ],
        ids=["rle", "pack", "dict"],
    )
    def test_decode_full_and_selected(self, maker):
        rng = np.random.default_rng(7)
        for n in (1, 100, 5000):
            values = maker(rng, n)
            encoded = choose_encoding(Column.from_values("x", values), block_rows=64)
            if encoded is None:
                continue
            np.testing.assert_array_equal(encoded.decode(), values)
            for size in (0, 1, n // 2, n):
                selection = np.sort(rng.integers(0, n, size=size, dtype=np.int64))
                np.testing.assert_array_equal(encoded.decode(selection), values[selection])

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
        st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values, sort):
        data = np.asarray(sorted(values) if sort else values, dtype=np.int64)
        encoded = choose_encoding(Column.from_values("x", data), block_rows=16)
        if encoded is None:
            return
        np.testing.assert_array_equal(encoded.decode(), data)
        selection = np.arange(0, data.shape[0], 2, dtype=np.int64)
        np.testing.assert_array_equal(encoded.decode(selection), data[selection])

    def test_iter_blocks_covers_column(self):
        values = np.repeat(np.arange(5, dtype=np.int64), 700)
        for block_rows in (64, 4096):
            encoded = choose_encoding(Column.from_values("x", values), block_rows=block_rows)
            assert encoded is not None
            pieces = []
            for start, block in encoded.iter_blocks():
                assert start == sum(len(p) for p in pieces)
                pieces.append(block)
            if encoded.encoding == "rle":
                reassembled = np.concatenate(pieces)
            else:
                reassembled = encoded.values[np.concatenate(pieces)] if (
                    encoded.encoding == "dict"
                ) else np.concatenate(pieces).astype(np.int64) + encoded.base
            np.testing.assert_array_equal(reassembled, values)


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------
class TestZoneMap:
    def test_skip_count_exact_on_sorted_data(self):
        n = 64 * DEFAULT_BLOCK_ROWS
        data = np.arange(n, dtype=np.int64)
        zm = ZoneMap.build(data)
        lo, hi = 5 * DEFAULT_BLOCK_ROWS, 7 * DEFAULT_BLOCK_ROWS - 1
        survivors = zm.survivors_range(lo, hi)
        # Ground truth per block: survives iff some row lies in [lo, hi].
        truth = np.array(
            [
                bool(np.any((chunk >= lo) & (chunk <= hi)))
                for chunk in np.split(data, np.arange(DEFAULT_BLOCK_ROWS, n, DEFAULT_BLOCK_ROWS))
            ]
        )
        np.testing.assert_array_equal(survivors, truth)
        assert int(np.count_nonzero(survivors)) == 2
        assert int(np.count_nonzero(~survivors)) == 62

    def test_shuffled_data_skips_nothing_sorted_skips_most(self):
        rng = np.random.default_rng(8)
        sorted_data = np.sort(rng.integers(0, 1 << 30, size=32 * DEFAULT_BLOCK_ROWS))
        shuffled = rng.permutation(sorted_data)
        lo = int(sorted_data[sorted_data.shape[0] // 2])
        hi = int(sorted_data[sorted_data.shape[0] // 2 + 100])
        sorted_survivors = ZoneMap.build(sorted_data).survivors_range(lo, hi)
        shuffled_survivors = ZoneMap.build(shuffled).survivors_range(lo, hi)
        # Same rows match either way; only clustering enables skips.
        assert int(np.count_nonzero(~sorted_survivors)) >= 30
        assert int(np.count_nonzero(~shuffled_survivors)) == 0
        # Exactness on both layouts: no matching row inside a skipped block.
        for data, survivors in ((sorted_data, sorted_survivors), (shuffled, shuffled_survivors)):
            mask = (data >= lo) & (data <= hi)
            rows = ZoneMap.build(data).candidate_rows(survivors)
            assert mask[np.setdiff1d(np.arange(data.shape[0]), rows)].sum() == 0
            assert mask.sum() == mask[rows].sum()

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=400),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_candidate_rows_matches_expanded_mask(self, values, block_rows):
        data = np.asarray(values, dtype=np.int64)
        zm = ZoneMap.build(data, block_rows=block_rows)
        rng = np.random.default_rng(len(values) * block_rows)
        survivors = rng.random(zm.num_blocks) < 0.4
        expected = np.flatnonzero(np.repeat(survivors, zm.block_lengths()))
        np.testing.assert_array_equal(zm.candidate_rows(survivors), expected)

    def test_domain_and_not_value_pruning(self):
        data = np.repeat(np.arange(4, dtype=np.int64), 8)
        zm = ZoneMap.build(data, block_rows=8)  # one block per value
        domain = np.array([False, True, False, False])
        np.testing.assert_array_equal(zm.survivors_domain(domain), [False, True, False, False])
        np.testing.assert_array_equal(zm.survivors_not_value(2), [True, True, False, True])


# ---------------------------------------------------------------------------
# Code-space evaluation vs plain Expression.evaluate
# ---------------------------------------------------------------------------
class TestCodeSpace:
    @pytest.fixture()
    def db(self):
        rng = np.random.default_rng(9)
        n = 3 * DEFAULT_BLOCK_ROWS
        db = Database()
        db.register_dataframe(
            "t",
            {
                "sorted": np.arange(n, dtype=np.int64),
                "rand": rng.integers(0, 40, size=n, dtype=np.int64),
                "name": [f"name_{i % 13:02d}" for i in range(n)],
            },
        )
        yield db
        db.close()

    @pytest.mark.parametrize(
        "expr_maker",
        [
            lambda: between("sorted", 100, 300),
            lambda: lt("sorted", 5),
            lambda: eq("rand", 7),
            lambda: isin("rand", (3, 5, 39)),
            lambda: lt("name", "name_03"),
            lambda: contains("name", "_1"),
            lambda: between("sorted", 10, 40) & eq("rand", 2),
            lambda: (between("sorted", 10, 400) & eq("rand", 2)) & lt("name", "name_05"),
            lambda: between("sorted", -100, -1),  # provably empty
        ],
        ids=["between", "lt", "eq", "in", "str-lt", "like", "conj", "nested-conj", "empty"],
    )
    def test_mask_bit_identical(self, db, expr_maker):
        expr = expr_maker()
        table = db.catalog.table("t")
        store = db.catalog.encodings
        result = codespace.evaluate(expr, table, store)
        assert result is not None
        np.testing.assert_array_equal(result.mask, np.asarray(expr.evaluate(table), dtype=bool))
        assert 0 <= result.blocks_skipped <= result.blocks_total
        bound = codespace.rows_upper_bound(expr, table, store)
        if bound is not None:
            assert bound >= int(result.mask.sum())

    def test_impossible_predicate_bounds_to_zero(self, db):
        table = db.catalog.table("t")
        store = db.catalog.encodings
        assert codespace.rows_upper_bound(between("sorted", -100, -1), table, store) == 0

    def test_unsupported_shape_returns_none(self, db):
        table = db.catalog.table("t")
        store = db.catalog.encodings
        disjunction = lt("sorted", 5) | eq("rand", 1)
        # One unsupported operand anywhere disables the whole conjunction.
        negated_leaf = and_(lt("sorted", 5), not_(eq("rand", 1)))
        for expr in (disjunction, negated_leaf):
            assert codespace.evaluate(expr, table, store) is None
            assert codespace.rows_upper_bound(expr, table, store) is None


# ---------------------------------------------------------------------------
# The catalog-owned store
# ---------------------------------------------------------------------------
class TestEncodingStore:
    def test_store_serves_and_invalidates_on_replace(self):
        db = Database()
        try:
            db.register_dataframe("t", {"x": np.repeat(np.arange(4, dtype=np.int64), 1000)})
            store = db.catalog.encodings
            table = db.catalog.table("t")
            first = store.encoded(table, "x")
            assert first is not None and first.encoding == "rle"
            assert store.encoded(table, "x") is first  # cached
            assert store.token(table, "x") == first.token
            assert store.encoded_bytes(table, "x") == first.encoded_bytes

            rng = np.random.default_rng(10)
            db.register_dataframe(
                "t", {"x": rng.integers(0, 200, size=4000, dtype=np.int64)}, replace=True
            )
            # The old table object no longer resolves through the store...
            assert store.encoded(table, "x") is None
            # ...and the new one gets a freshly probed encoding.
            replaced = store.encoded(db.catalog.table("t"), "x")
            assert replaced is not None and replaced.encoding == "pack"
        finally:
            db.close()

    def test_zone_map_available_for_unencoded_integer_columns(self):
        db = Database()
        try:
            rng = np.random.default_rng(11)
            db.register_dataframe(
                "t",
                {
                    "wide": rng.integers(-(2**60), 2**60, size=1000, dtype=np.int64),
                    "f": rng.random(1000),
                },
            )
            store = db.catalog.encodings
            table = db.catalog.table("t")
            assert store.encoded(table, "wide") is None
            assert store.zone_map(table, "wide") is not None  # raw columns still skip
            assert store.zone_map(table, "f") is None  # floats have no physical int64
            assert store.token(table, "wide") == "raw"
        finally:
            db.close()
