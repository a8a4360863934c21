"""Per-block min/max zone maps over physical column data.

A :class:`ZoneMap` partitions a column's physical ``int64`` array into
fixed-size blocks and records, per block, the minimum, maximum and null
count.  Base-table filters consult the map before touching rows: a block
whose ``[min, max]`` interval provably cannot satisfy a predicate is
skipped wholesale, and the skip is *exact* — a block is only skipped when
no row in it can match, so the resulting mask is bit-identical to a full
scan.

Zone maps live entirely in the physical domain.  For dictionary-encoded
string columns the physical values are dictionary codes, so predicates
must first be translated to code space (see :mod:`repro.expr.codespace`);
the map then supports two pruning shapes:

* **range pruning** (:meth:`survivors_range`) for predicates equivalent to
  ``lo <= value <= hi`` in the physical domain;
* **domain pruning** (:meth:`survivors_domain`) for predicates given as a
  boolean lookup table over a dense code domain (LIKE over a dictionary,
  IN-lists, unsorted dictionaries): a block survives iff the table has at
  least one True entry inside ``[min, max]``, answered in O(1) per block
  from a prefix sum.

The engine stores no NULLs today, so ``null_counts`` is all zeros; it is
kept in the layout so the on-disk format planned in ROADMAP item 3 does
not need a schema change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Rows per zone-map block.  Small enough that selective predicates on
#: clustered data skip most of a million-row column, large enough that the
#: per-block metadata (24 bytes) is negligible against 8-byte rows.
DEFAULT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ZoneMap:
    """Per-block (min, max, null count) metadata over one physical array."""

    block_rows: int
    num_rows: int
    mins: np.ndarray
    maxs: np.ndarray
    null_counts: np.ndarray

    @classmethod
    def build(cls, data: np.ndarray, block_rows: int = DEFAULT_BLOCK_ROWS) -> "ZoneMap":
        """Build a zone map over a one-dimensional integer array."""
        n = int(data.shape[0])
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(block_rows=block_rows, num_rows=0, mins=empty, maxs=empty, null_counts=empty)
        starts = np.arange(0, n, block_rows, dtype=np.int64)
        mins = np.minimum.reduceat(data, starts).astype(np.int64, copy=False)
        maxs = np.maximum.reduceat(data, starts).astype(np.int64, copy=False)
        nulls = np.zeros(starts.shape[0], dtype=np.int64)
        return cls(block_rows=block_rows, num_rows=n, mins=mins, maxs=maxs, null_counts=nulls)

    @property
    def num_blocks(self) -> int:
        """Number of blocks covered by this map."""
        return int(self.mins.shape[0])

    @property
    def nbytes(self) -> int:
        """Metadata bytes held by the map."""
        return int(self.mins.nbytes + self.maxs.nbytes + self.null_counts.nbytes)

    def block_lengths(self) -> np.ndarray:
        """Rows per block (every block is full except possibly the last)."""
        if self.num_blocks == 0:
            return np.empty(0, dtype=np.int64)
        lengths = np.full(self.num_blocks, self.block_rows, dtype=np.int64)
        remainder = self.num_rows - (self.num_blocks - 1) * self.block_rows
        lengths[-1] = remainder
        return lengths

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def survivors_range(self, lo: int, hi: int) -> np.ndarray:
        """Blocks that may contain a value in the inclusive ``[lo, hi]`` range."""
        return (self.maxs >= lo) & (self.mins <= hi)

    def survivors_domain(self, domain_mask: np.ndarray) -> np.ndarray:
        """Blocks that may contain a code whose ``domain_mask`` entry is True.

        ``domain_mask`` is a boolean lookup table over the dense code domain
        ``[0, len(domain_mask))``; every stored value must fall inside it.
        """
        cumulative = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(domain_mask, dtype=np.int64)]
        )
        return cumulative[self.maxs + 1] > cumulative[self.mins]

    def survivors_not_value(self, value: int) -> np.ndarray:
        """Blocks that may contain a value different from ``value``."""
        return ~((self.mins == value) & (self.maxs == value))

    def candidate_rows(self, survivors: np.ndarray) -> np.ndarray:
        """Row positions covered by the surviving blocks, in ascending order.

        Runs in O(selected rows), not O(total rows): a grouped-arange
        cumsum over the surviving blocks only, so highly selective prunes
        never expand a per-row mask across the whole column.
        """
        if survivors.all():
            return np.arange(self.num_rows, dtype=np.int64)
        blocks = np.flatnonzero(survivors)
        if blocks.size == 0:
            return np.empty(0, dtype=np.int64)
        lengths = self.block_lengths()[blocks]
        starts = blocks.astype(np.int64) * self.block_rows
        steps = np.ones(int(lengths.sum()), dtype=np.int64)
        steps[0] = starts[0]
        if blocks.size > 1:
            boundaries = np.cumsum(lengths[:-1])
            steps[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
        return np.cumsum(steps)


@dataclass(frozen=True)
class BlockSelection:
    """The outcome of zone-map pruning for one predicate over one table.

    ``survivors[b]`` is True when block ``b`` may contain matching rows.
    Rows outside surviving blocks are *proven* non-matching, so consumers
    (the code-space evaluator) may skip them
    without changing the resulting mask.
    """

    zone_map: ZoneMap
    survivors: np.ndarray

    @property
    def num_blocks(self) -> int:
        """Total blocks covered."""
        return self.zone_map.num_blocks

    @property
    def blocks_skipped(self) -> int:
        """Blocks proven empty of matches."""
        return self.num_blocks - int(np.count_nonzero(self.survivors))

    @property
    def rows_selected(self) -> int:
        """Rows inside surviving blocks."""
        if self.num_blocks == 0:
            return 0
        return int(self.zone_map.block_lengths()[self.survivors].sum())

    @property
    def rows_skipped(self) -> int:
        """Rows inside skipped blocks (never evaluated)."""
        return self.zone_map.num_rows - self.rows_selected

    def candidate_rows(self) -> np.ndarray:
        """Row positions of the surviving blocks, ascending."""
        return self.zone_map.candidate_rows(self.survivors)
