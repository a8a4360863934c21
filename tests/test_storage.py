"""Unit tests for the storage layer: datatypes, columns, tables, catalog."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SchemaError
from repro.storage import Catalog, Column, DataType, Table
from repro.storage.column import concat_columns
from repro.storage.datatypes import coerce_to_numpy, infer_datatype
from repro.storage.table import ForeignKey


class TestDataTypes:
    def test_infer_int(self):
        assert infer_datatype([1, 2, 3]) is DataType.INT64

    def test_infer_float(self):
        assert infer_datatype([1.5, 2.5]) is DataType.FLOAT64

    def test_infer_string(self):
        assert infer_datatype(["a", "b"]) is DataType.STRING

    def test_infer_bool(self):
        assert infer_datatype([True, False]) is DataType.BOOL

    def test_infer_empty_raises(self):
        with pytest.raises(SchemaError):
            infer_datatype([])

    def test_coerce_string_rejected(self):
        with pytest.raises(SchemaError):
            coerce_to_numpy(["a"], DataType.STRING)

    def test_integer_backed(self):
        assert DataType.INT64.is_integer_backed
        assert DataType.STRING.is_integer_backed
        assert DataType.DATE.is_integer_backed
        assert not DataType.FLOAT64.is_integer_backed


class TestColumn:
    def test_from_values_int(self):
        col = Column.from_values("x", [3, 1, 2])
        assert col.dtype is DataType.INT64
        assert col.to_list() == [3, 1, 2]
        assert len(col) == 3

    def test_string_dictionary_encoding(self):
        col = Column.from_values("s", ["b", "a", "b", "c"])
        assert col.dtype is DataType.STRING
        assert col.dictionary == ("a", "b", "c")
        assert col.to_list() == ["b", "a", "b", "c"]
        assert col.data.dtype == np.int64

    def test_encode_literal_present_and_absent(self):
        col = Column.from_values("s", ["x", "y"])
        assert col.encode_literal("y") == col.dictionary.index("y")
        assert col.encode_literal("missing") == -1

    def test_take_and_filter(self):
        col = Column.from_values("x", [10, 20, 30, 40])
        assert col.take(np.array([2, 0])).to_list() == [30, 10]
        assert col.filter(np.array([True, False, True, False])).to_list() == [10, 30]

    def test_min_max_and_distinct(self):
        col = Column.from_values("x", [5, 2, 5, 9])
        assert col.min_max() == (2, 9)
        assert col.distinct_count() == 3

    def test_min_max_empty_raises(self):
        col = Column.from_values("x", [1]).filter(np.array([False]))
        with pytest.raises(SchemaError):
            col.min_max()

    def test_concat_string_columns_merges_dictionaries(self):
        a = Column.from_values("s", ["a", "c"])
        b = Column.from_values("s", ["b", "c"])
        merged = a.concat(b)
        assert merged.to_list() == ["a", "c", "b", "c"]
        assert merged.dictionary == ("a", "b", "c")

    def test_concat_type_mismatch_raises(self):
        a = Column.from_values("x", [1, 2])
        b = Column.from_values("x", [1.0])
        with pytest.raises(SchemaError):
            a.concat(b)

    def test_concat_columns_helper(self):
        cols = [Column.from_values("x", [1]), Column.from_values("x", [2, 3])]
        assert concat_columns(cols).to_list() == [1, 2, 3]

    def test_rename(self):
        col = Column.from_values("x", [1]).rename("y")
        assert col.name == "y"

    def test_string_requires_dictionary(self):
        with pytest.raises(SchemaError):
            Column(name="s", dtype=DataType.STRING, data=np.array([0]), dictionary=None)

    @pytest.mark.parametrize("codes, dictionary", [
        ([0, 2], ("a", "b")),        # past the dictionary
        ([0, -1], ("a", "b")),       # negative
        ([0, 1], ("a", "b", "a")),   # duplicate entry: encode_literal would find only the first
    ])
    def test_from_codes_rejects_codes_outside_or_duplicate_entries(self, codes, dictionary):
        with pytest.raises(SchemaError):
            Column.from_codes("s", np.array(codes), dictionary)

    def test_from_codes_accepts_unsorted_and_empty(self):
        assert Column.from_codes("s", np.array([1, 0]), ("b", "a")).to_list() == ["a", "b"]
        assert len(Column.from_codes("s", np.zeros(0, dtype=np.int64), ())) == 0

    @pytest.mark.parametrize("data", [
        np.array([-5, -1, -5, 3, -(2**40) // 2**30], dtype=np.int64),   # negative values
        np.array([-(2**63), 2**63 - 1, 0, 0], dtype=np.int64),          # int64-extreme span: np.unique
        np.array([0, 2**64 - 1, 2**64 - 1, 7], dtype=np.uint64),        # uint64 past int64's range
        np.array([-100, 100, 30, -25], dtype=np.int8),                  # value - min overflows int8
        np.array([True, False, True]),
        np.zeros(0, dtype=np.int64),
        np.random.default_rng(1).integers(0, 10**12, 1_000),            # sparse span: np.unique
        np.random.default_rng(2).integers(-300, 300, 5_000),            # dense span: presence table
    ], ids=["negative", "int64-extreme", "uint64", "int8", "bool", "empty", "sparse", "dense"])
    def test_distinct_count_equals_unique(self, data):
        dtype = DataType.BOOL if data.dtype == bool else DataType.INT64
        assert Column("x", dtype, data).distinct_count() == len(np.unique(data))

    def test_distinct_count_of_dense_integers_does_not_sort(self, monkeypatch):
        data = np.random.default_rng(3).integers(0, 1_000, 10_000)
        expected = len(np.unique(data))
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: pytest.fail("sorted"))
        assert Column("x", DataType.INT64, data).distinct_count() == expected

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_integers_property(self, values):
        col = Column.from_values("x", values)
        assert col.to_list() == values

    @given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_strings_property(self, values):
        col = Column.from_values("s", values)
        assert col.to_list() == values


class TestTable:
    def _table(self) -> Table:
        return Table.from_dict(
            "t",
            {"id": [1, 2, 3], "name": ["a", "b", "c"], "score": [0.5, 0.25, 1.0]},
            primary_key=["id"],
        )

    def test_basic_properties(self):
        t = self._table()
        assert t.num_rows == 3
        assert t.num_columns == 3
        assert t.column_names == ("id", "name", "score")
        assert t.is_primary_key("id")
        assert not t.is_primary_key("name")

    def test_from_dict_takes_a_prebuilt_column_under_its_key(self):
        prebuilt = Column.from_codes("category", np.array([1, 0, 1]), ("x", "y"))
        t = Table.from_dict("t", {"id": [1, 2, 3], "kind": prebuilt})
        assert t.column("kind").name == "kind"
        assert t.column("kind").data is prebuilt.data
        assert t.to_dict()["kind"] == ["y", "x", "y"]

    def test_column_lookup_and_missing(self):
        t = self._table()
        assert t.column("name").to_list() == ["a", "b", "c"]
        assert t.has_column("score")
        with pytest.raises(SchemaError):
            t.column("nope")

    def test_take_filter_select_head(self):
        t = self._table()
        assert t.take(np.array([2, 0])).column("id").to_list() == [3, 1]
        assert t.filter(np.array([False, True, True])).num_rows == 2
        assert t.select(["name"]).column_names == ("name",)
        assert t.head(2).num_rows == 2

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError):
            Table.from_dict("bad", {"a": [1, 2], "b": [1]})

    def test_duplicate_columns_raise(self):
        cols = (Column.from_values("a", [1]), Column.from_values("a", [2]))
        with pytest.raises(SchemaError):
            Table(name="bad", columns=cols)

    def test_foreign_key_metadata(self):
        t = Table.from_dict(
            "child",
            {"pid": [1, 2]},
            foreign_keys=[ForeignKey("pid", "parent", "id")],
        )
        assert t.is_foreign_key("pid")
        assert not t.is_foreign_key("other")

    def test_unknown_primary_key_raises(self):
        with pytest.raises(SchemaError):
            Table.from_dict("bad", {"a": [1]}, primary_key=["nope"])

    def test_memory_bytes_positive(self):
        assert self._table().memory_bytes() > 0

    def test_to_dict(self):
        assert self._table().to_dict()["name"] == ["a", "b", "c"]


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1, 2, 2]}))
        assert catalog.has_table("t")
        assert "t" in catalog
        assert catalog.table("t").num_rows == 3
        assert catalog.statistics("t").num_rows == 3
        assert catalog.statistics("t").distinct("a") == 2

    def test_duplicate_registration_raises(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1]}))
        with pytest.raises(CatalogError):
            catalog.register(Table.from_dict("t", {"a": [2]}))
        catalog.register(Table.from_dict("t", {"a": [2, 3]}), replace=True)
        assert catalog.table("t").num_rows == 2

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")

    def test_unregister(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"a": [1]}))
        catalog.unregister("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.unregister("t")

    def test_largest_table_and_total_rows(self):
        catalog = Catalog()
        assert catalog.largest_table() is None
        catalog.register(Table.from_dict("small", {"a": [1]}))
        catalog.register(Table.from_dict("big", {"a": list(range(10))}))
        assert catalog.largest_table() == "big"
        assert catalog.total_rows() == 11
        assert len(catalog) == 2
