"""Nested-loop replay of equi-join matching (test-only reference).

:meth:`repro.exec.kernels.HashIndex.match` answers through a direct-address
slot table, CSR runs over radix passes, or a sorted index with precomputed
run ends, chosen from the key domain.  This replay does none of that: it
compares every probe key with every build key as Python objects — integers
of any magnitude, or tuples for composite keys, so nothing can wrap — and
emits the pairs in the order the engine promises: probe index ascending,
then build rows in their original order.  The kernel's two index arrays
must equal this result exactly, order included, whichever structure it
built.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def replay_match(probe_keys: Sequence, build_keys: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """``(probe_indices, build_indices)`` of every equal pair, as ``int64`` arrays."""
    probe_indices, build_indices = [], []
    for i, probe_key in enumerate(probe_keys):
        for j, build_key in enumerate(build_keys):
            if probe_key == build_key:
                probe_indices.append(i)
                build_indices.append(j)
    return np.asarray(probe_indices, dtype=np.int64), np.asarray(build_indices, dtype=np.int64)


def composite_keys(columns: Sequence[np.ndarray]) -> list:
    """One tuple of Python ints per row of aligned key columns."""
    return list(zip(*(np.asarray(column).tolist() for column in columns)))
