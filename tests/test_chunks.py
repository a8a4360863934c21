"""Unit tests for chunk granularity.

The ``DataChunk`` / ``iter_chunks`` cases (selection-vector refinement,
compaction, chunk iteration) and the ``TestOperators`` class (``TableScan``,
``FilterOperator``, ``CreateBF``, ``ProbeBF``, ``HashJoinBuild`` /
``HashJoinProbe``, ``Pipeline``) that lived in
``test_chunks_and_operators.py`` covered ``exec/operators.py`` and the
``DataChunk`` class, which nothing but those tests used; they were removed
together.
"""

from __future__ import annotations

from repro.exec.backends import DEFAULT_CHUNK_SIZE, num_chunks


def test_num_chunks():
    assert num_chunks(10, 4) == 3
    assert num_chunks(0, 4) == 0
    assert num_chunks(1) == 1
    assert num_chunks(DEFAULT_CHUNK_SIZE + 1) == 2
