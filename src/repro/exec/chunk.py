"""Chunk granularity.

DuckDB's push-based engine processes data in fixed-size *data chunks*
(default 2048 tuples).  The ``"chunked"`` backend preset cuts probe inputs
at that granularity, and the Figure 14 model
(:class:`~repro.exec.parallel.ParallelismModel`) caps a pipeline's
parallelism by the number of chunks its probe side provides.
"""

from __future__ import annotations

#: Default tuples per chunk, matching DuckDB's vector size.
DEFAULT_CHUNK_SIZE = 2048


def num_chunks(total_rows: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of chunks needed for ``total_rows`` rows."""
    if total_rows <= 0:
        return 0
    return (total_rows + chunk_size - 1) // chunk_size
