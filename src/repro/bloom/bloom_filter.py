"""Blocked Bloom filter with fully vectorized NumPy insert and probe paths.

The paper uses Apache Arrow's blocked Bloom filter (a "split block" design
accelerated with AVX2) to implement the approximate semi-joins of Predicate
Transfer.  This module provides the same structure in NumPy:

* the filter is an array of 64-bit *blocks*;
* each key hashes (splitmix64) to one block plus a small number of bit
  positions inside that block;
* insert sets those bits, probe tests them — both as single vectorized
  passes over the whole key array, which is the NumPy analogue of the SIMD
  batch probe in Arrow;
* the hashing pass behind both (:func:`hash_keys`, :func:`key_patterns`) is
  *blocked*: it walks the keys in cache-sized blocks, every ufunc writing in
  place, so no pass allocates a table-sized temporary.

Because every block is a single machine word, a probe touches exactly one
cache line, which is what makes Bloom probes several times cheaper than hash
table probes (reproduced in the Figure 16 microbenchmark).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ExecutionError

#: Default false-positive rate, matching Arrow's default used in the paper.
DEFAULT_FPR = 0.02

#: Number of bits set per key inside its block.
BITS_PER_KEY = 4

#: Keys per step of the hashing pass: a step's working set (result slice +
#: two scratch buffers, 384 KiB) stays in L2.  A constant, not a knob.
_HASH_BLOCK = 1 << 14

_U64 = np.uint64


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a cheap, well-mixing 64-bit hash
    (wrapping ``uint64`` arithmetic; ``keys`` may be strided)."""
    out = np.empty(keys.shape[0], dtype=np.uint64)
    scratch = np.empty(min(_HASH_BLOCK, keys.shape[0]), dtype=np.uint64)
    for lo in range(0, keys.shape[0], _HASH_BLOCK):
        z = out[lo : lo + _HASH_BLOCK]
        t = scratch[: z.shape[0]]
        np.add(keys[lo : lo + _HASH_BLOCK], _U64(0x9E3779B97F4A7C15), out=z)
        for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(z, _U64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, _U64(multiplier), out=z)
        np.right_shift(z, _U64(31), out=t)
        np.bitwise_xor(z, t, out=z)
    return out


def hash_keys(keys: np.ndarray) -> np.ndarray:
    """Splitmix64 hashes of a vector of integer keys.

    This is the (only) hashing pass every Bloom insert and probe performs;
    exposing it lets callers hash a key column once and replay the result
    across many filters (:class:`~repro.exec.hashcache.HashCache`).  The
    hashes depend solely on the key values, never on a filter's geometry.
    """
    return _splitmix64(np.asarray(keys, dtype=np.int64).view(np.uint64))


def key_patterns(hashes: np.ndarray) -> np.ndarray:
    """Per-key 64-bit block bit-patterns derived from splitmix64 hashes.

    Like the hashes themselves, the :data:`BITS_PER_KEY` bit positions a key
    sets within its block depend only on the key's hash — not on the filter —
    so they too can be computed once per column and replayed across every
    insert and probe (this derivation is the bulk of the per-pass hash work).
    Bit ``i`` is ``((h >> 6·(i+1)) ^ (h >> 32 + 3·i)) & 63``.
    """
    pattern = np.zeros(hashes.shape[0], dtype=np.uint64)
    scratch = np.empty((2, min(_HASH_BLOCK, hashes.shape[0])), dtype=np.uint64)
    for lo in range(0, hashes.shape[0], _HASH_BLOCK):
        h = hashes[lo : lo + _HASH_BLOCK]
        p = pattern[lo : lo + _HASH_BLOCK]
        rotated, bit = scratch[0, : h.shape[0]], scratch[1, : h.shape[0]]
        for i in range(BITS_PER_KEY):
            np.right_shift(rotated if i else h, _U64(6), out=rotated)
            np.right_shift(h, _U64(32 + 3 * i), out=bit)
            np.bitwise_xor(rotated, bit, out=bit)
            np.bitwise_and(bit, _U64(63), out=bit)
            np.left_shift(_U64(1), bit, out=bit)
            np.bitwise_or(p, bit, out=p)
    return pattern


def optimal_num_blocks(num_keys: int, fpr: float) -> int:
    """Number of 64-bit blocks needed for ``num_keys`` at false-positive rate ``fpr``.

    Uses the standard Bloom sizing formula ``m = -n ln p / (ln 2)^2`` bits and
    rounds up to a power-of-two block count so the block index can be taken
    with a mask.  Blocked filters have a slightly worse FPR than classic
    Bloom filters at equal size, so a 1.25x safety factor is applied.
    """
    if num_keys <= 0:
        return 1
    if not 0.0 < fpr < 1.0:
        raise ExecutionError(f"false-positive rate must be in (0, 1), got {fpr}")
    bits = -num_keys * math.log(fpr) / (math.log(2.0) ** 2)
    bits *= 1.25
    blocks = max(1, int(math.ceil(bits / 64.0)))
    return 1 << max(0, (blocks - 1).bit_length())


@dataclass
class BloomFilterStatistics:
    """Counters recorded by a Bloom filter over its lifetime."""

    keys_inserted: int = 0
    keys_probed: int = 0
    probes_passed: int = 0

    @property
    def observed_pass_rate(self) -> float:
        """Fraction of probed keys that passed (matches + false positives)."""
        if self.keys_probed == 0:
            return 0.0
        return self.probes_passed / self.keys_probed


class BloomFilter:
    """A blocked Bloom filter over 64-bit integer keys.

    Parameters
    ----------
    expected_keys:
        Number of distinct keys expected to be inserted; used for sizing.
    fpr:
        Target false-positive rate (default 2%, the paper/Arrow default).
    num_blocks:
        Explicit block count; overrides sizing from ``expected_keys``.
    """

    def __init__(
        self,
        expected_keys: int,
        fpr: float = DEFAULT_FPR,
        num_blocks: Optional[int] = None,
    ) -> None:
        self.fpr = fpr
        self.expected_keys = max(int(expected_keys), 0)
        self.num_blocks = num_blocks if num_blocks is not None else optimal_num_blocks(self.expected_keys, fpr)
        if self.num_blocks <= 0:
            raise ExecutionError("Bloom filter must have at least one block")
        self._blocks = np.zeros(self.num_blocks, dtype=np.uint64)
        self._block_mask = np.uint64(self.num_blocks - 1)
        self._is_power_of_two = (self.num_blocks & (self.num_blocks - 1)) == 0
        self.statistics = BloomFilterStatistics()
        # Probes run concurrently under the morsel-parallel backend; the
        # counter updates are read-modify-write and need the lock (the block
        # array itself is only read during probes).
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Hashing helpers
    # ------------------------------------------------------------------
    def _block_and_bits(
        self,
        keys: Optional[np.ndarray],
        hashes: Optional[np.ndarray] = None,
        patterns: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map keys to (block index, 64-bit bit-pattern within the block).

        ``hashes`` / ``patterns`` are optional precomputed splitmix64 hashes
        and block bit-patterns (see :func:`hash_keys` / :func:`key_patterns`):
        supplying them replays a cached hashing pass instead of re-hashing,
        and is bit-identical to hashing ``keys`` directly.
        """
        if hashes is None:
            assert keys is not None, "either keys or hashes must be supplied"
            hashes = hash_keys(keys)
        if self._is_power_of_two:
            block_idx = (hashes & self._block_mask).astype(np.int64)
        else:
            block_idx = (hashes % np.uint64(self.num_blocks)).astype(np.int64)
        if patterns is None:
            patterns = key_patterns(hashes)
        return block_idx, patterns

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def insert(
        self,
        keys: Optional[np.ndarray] = None,
        hashes: Optional[np.ndarray] = None,
        patterns: Optional[np.ndarray] = None,
    ) -> None:
        """Insert a vector of integer keys (or their precomputed hashes)."""
        if keys is not None:
            keys = np.asarray(keys)
            count = int(keys.size)
        elif hashes is not None:
            count = int(np.asarray(hashes).size)
        else:
            raise ExecutionError("Bloom insert requires keys or precomputed hashes")
        if count == 0:
            return
        block_idx, pattern = self._block_and_bits(keys, hashes, patterns)
        np.bitwise_or.at(self._blocks, block_idx, pattern)
        with self._stats_lock:
            self.statistics.keys_inserted += count

    def probe(
        self,
        keys: Optional[np.ndarray] = None,
        hashes: Optional[np.ndarray] = None,
        patterns: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return a boolean array: True where the key *may* be present.

        Accepts either raw ``keys`` or a precomputed hashing pass
        (``hashes`` and optionally ``patterns``); the results are
        bit-identical.  Probes may run concurrently from morsel worker
        threads — the block array is only read, and the statistics update
        is serialized under the filter's lock.
        """
        if keys is not None:
            keys = np.asarray(keys)
            count = int(keys.size)
        elif hashes is not None:
            count = int(np.asarray(hashes).size)
        else:
            raise ExecutionError("Bloom probe requires keys or precomputed hashes")
        if count == 0:
            return np.zeros(0, dtype=bool)
        block_idx, pattern = self._block_and_bits(keys, hashes, patterns)
        hits = (self._blocks[block_idx] & pattern) == pattern
        passed = int(hits.sum())
        with self._stats_lock:
            self.statistics.keys_probed += count
            self.statistics.probes_passed += passed
        return hits

    def contains(self, key: int) -> bool:
        """Scalar membership check (mostly useful in tests and examples)."""
        return bool(self.probe(np.asarray([key], dtype=np.int64))[0])

    @property
    def size_bytes(self) -> int:
        """Size of the filter's bit array in bytes."""
        return int(self._blocks.nbytes)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set, an indicator of saturation."""
        set_bits = int(np.unpackbits(self._blocks.view(np.uint8)).sum())
        return set_bits / (self.num_blocks * 64)

    def union_inplace(self, other: "BloomFilter") -> None:
        """Bitwise-OR another filter of identical geometry into this one.

        Used to combine per-thread partial filters in the simulated parallel
        build, mirroring the Combine step of the paper's CreateBF operator.
        """
        if other.num_blocks != self.num_blocks:
            raise ExecutionError("cannot union Bloom filters of different sizes")
        self._blocks |= other._blocks
        with self._stats_lock:
            self.statistics.keys_inserted += other.statistics.keys_inserted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(blocks={self.num_blocks}, bytes={self.size_bytes}, "
            f"inserted={self.statistics.keys_inserted})"
        )
