"""An independent oracle: the same tables and the same SQL text in stdlib ``sqlite3``.

Every other reference in this suite is the engine compared with itself
(mode vs mode, backend vs backend) or a replay
written from the same reading of the algorithm.  :func:`load_sqlite` copies
a :class:`~repro.Database`'s catalog into a ``sqlite3`` connection, so a
statement can be run verbatim on both and a bug shared by every mode — in a
kernel, in lowering, in filter evaluation — shows up as a disagreement.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Dict, Mapping, Optional

from repro.storage.datatypes import DataType

_SQL_TYPES = {
    DataType.INT64: "INTEGER",
    DataType.DATE: "INTEGER",  # days since epoch, compared as integers in the .sql files
    DataType.BOOL: "INTEGER",
    DataType.FLOAT64: "REAL",
    DataType.STRING: "TEXT",
}

#: Relative tolerance for non-integer aggregates (SUM / AVG over floats: the
#: two engines add in different orders).  Integer results must match exactly.
FLOAT_TOLERANCE = 1e-9


def load_sqlite(db, connection: sqlite3.Connection) -> None:
    """Write every table of ``db``'s catalog into ``connection``.

    ``LIKE`` is made case-sensitive (sqlite's default folds ASCII case; the
    engine's string predicates do not).  Text compares bytewise in both.
    """
    connection.execute("PRAGMA case_sensitive_like=ON")
    for table in db.catalog:
        names = table.column_names
        declarations = ", ".join(
            f'"{name}" {_SQL_TYPES[table.column(name).dtype]}' for name in names
        )
        connection.execute(f'CREATE TABLE "{table.name}" ({declarations})')
        connection.executemany(
            f'INSERT INTO "{table.name}" VALUES ({", ".join("?" * len(names))})',
            zip(*(table.column(name).to_list() for name in names)),
        )
    connection.commit()


def sqlite_aggregates(connection: sqlite3.Connection, text: str) -> Dict[str, Optional[float]]:
    """Run one single-row aggregate statement; output name -> value."""
    cursor = connection.execute(text)
    (row,) = cursor.fetchall()
    return {description[0]: value for description, value in zip(cursor.description, row)}


def disagreements(
    engine: Mapping[str, float], oracle: Mapping[str, Optional[float]]
) -> Dict[str, tuple]:
    """Output names on which the engine's aggregates differ from sqlite's.

    Integers (COUNT, and SUM / MIN / MAX over integer columns) must be
    equal; floats agree within :data:`FLOAT_TOLERANCE` relative; sqlite's
    ``NULL`` for an aggregate over no rows is the engine's ``0.0``.
    """
    differing = {}
    for name in engine.keys() | oracle.keys():
        ours, theirs = engine.get(name), oracle.get(name, 0.0)
        if theirs is None:
            theirs = 0.0
        if ours is None:
            agree = False
        elif isinstance(theirs, int):
            agree = ours == theirs
        else:
            agree = math.isclose(ours, theirs, rel_tol=FLOAT_TOLERANCE, abs_tol=0.0)
        if not agree:
            differing[name] = (ours, theirs)
    return differing
