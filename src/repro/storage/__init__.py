"""Columnar storage substrate: datatypes, columns, tables, catalog, artifact cache."""

from repro.storage.artifacts import ArtifactCache, ArtifactKey, mask_fingerprint
from repro.storage.catalog import Catalog, TableStatistics
from repro.storage.column import Column, concat_columns
from repro.storage.datatypes import DataType, infer_datatype
from repro.storage.table import ForeignKey, Table

__all__ = [
    "ArtifactCache",
    "ArtifactKey",
    "Catalog",
    "Column",
    "DataType",
    "ForeignKey",
    "Table",
    "TableStatistics",
    "concat_columns",
    "infer_datatype",
    "mask_fingerprint",
]
