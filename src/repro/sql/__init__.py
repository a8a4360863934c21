"""SQL front end: lexer → parser → binder → :class:`~repro.query.QuerySpec` lowering.

The engine's execution stack — optimizer, transfer phase, physical-plan
compiler, backends — consumes :class:`~repro.query.QuerySpec` objects.  This
package turns SQL text into those objects, so every ``.sql`` file anyone can
write becomes a workload for all five execution modes::

    from repro import Database, ExecutionMode
    result = db.sql("SELECT COUNT(*) FROM orders o, lineitem l "
                    "WHERE l.l_orderkey = o.o_orderkey")

Pipeline stages (each usable on its own):

* :func:`repro.sql.lexer.tokenize` — text → tokens with source offsets;
* :func:`repro.sql.parser.parse_statement` — tokens → typed AST;
* :func:`repro.sql.binder.bind_select` — AST + catalog → name-resolved
  :class:`~repro.sql.binder.BoundSelect` (caret diagnostics on unknown /
  ambiguous names);
* :func:`repro.sql.lower.lower_select` — bound AST → ``QuerySpec`` (WHERE
  conjuncts classified into base filters, equi-joins, post-join predicates);
* :func:`repro.sql.format.to_sql` — the inverse: ``QuerySpec`` → SQL text
  with the round-trip guarantee ``compile(to_sql(spec)) == spec``.

Every front-end failure raises :class:`~repro.errors.SqlError` carrying the
source text and character offset; ``str(error)`` renders a caret under the
offending position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.query import QuerySpec
from repro.sql.ast import SelectStatement
from repro.sql.binder import BoundSelect, bind_select
from repro.sql.format import format_expression, format_value, to_sql
from repro.sql.lexer import Token, default_name, tokenize
from repro.sql.lower import lower_select
from repro.sql.parser import parse_statement, split_statements
from repro.storage.catalog import Catalog, CatalogSnapshot


Versions = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class Statement:
    """One compiled SQL statement (or a pre-built spec)."""

    #: The lowered query, ready for ``Database.execute``.
    query: QuerySpec
    #: True when the statement was ``EXPLAIN SELECT ...``.
    explain: bool = False
    #: True when the statement was ``EXPLAIN ANALYZE SELECT ...`` (execute
    #: and annotate the plan with actual rows/timings).
    analyze: bool = False
    #: The sorted ``(table, version)`` pairs of the snapshot it was bound
    #: against; empty when compiled against a live catalog.
    versions: Versions = ()
    #: Canonical text ``to_sql(query, include_name=False)``, the plan
    #: cache's key; computed only for a cache, and ``None`` otherwise or
    #: for the rare spec SQL cannot round-trip.
    text: Optional[str] = None


def compile_statement(
    source: str,
    catalog: Catalog,
    name: Optional[str] = None,
) -> Statement:
    """Compile SQL text into a :class:`Statement`.

    ``name`` overrides the query name; otherwise a ``-- name:`` directive in
    the source is used, falling back to ``"sql_query"``.  Raises
    :class:`~repro.errors.SqlError` on any lex/parse/bind/lowering failure.
    """
    return bind_statement(parse_statement(source), source, catalog, name)


def bind_statement(
    parsed: SelectStatement,
    source: str,
    catalog: Union[Catalog, CatalogSnapshot],
    name: Optional[str] = None,
    versions: Versions = (),
) -> Statement:
    """Bind a parsed statement against ``catalog`` — a live catalog or a
    snapshot pinning every table it names — and lower it."""
    bound = bind_select(parsed, catalog, source, name=name)
    return Statement(lower_select(bound, source), bound.explain, bound.analyze, versions)


__all__ = [
    "BoundSelect",
    "SelectStatement",
    "Statement",
    "Token",
    "bind_select",
    "bind_statement",
    "compile_statement",
    "default_name",
    "format_expression",
    "format_value",
    "lower_select",
    "parse_statement",
    "split_statements",
    "to_sql",
    "tokenize",
]
