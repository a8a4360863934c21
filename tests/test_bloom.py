"""Unit and property tests for the blocked Bloom filter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter, hash_keys, key_patterns, optimal_num_blocks
from repro.bloom.bloom_filter import _HASH_BLOCK, BITS_PER_KEY
from repro.errors import ExecutionError


class TestSizing:
    def test_zero_keys(self):
        assert optimal_num_blocks(0, 0.02) == 1

    def test_power_of_two(self):
        for n in (10, 1_000, 50_000):
            blocks = optimal_num_blocks(n, 0.02)
            assert blocks & (blocks - 1) == 0

    def test_more_keys_more_blocks(self):
        assert optimal_num_blocks(100_000, 0.02) > optimal_num_blocks(1_000, 0.02)

    def test_lower_fpr_more_blocks(self):
        assert optimal_num_blocks(10_000, 0.001) > optimal_num_blocks(10_000, 0.05)

    def test_invalid_fpr_raises(self):
        with pytest.raises(ExecutionError):
            optimal_num_blocks(10, 1.5)


class TestBloomFilter:
    def test_no_false_negatives_basic(self):
        keys = np.arange(0, 5_000, dtype=np.int64)
        bloom = BloomFilter(expected_keys=len(keys))
        bloom.insert(keys)
        assert bloom.probe(keys).all()

    def test_false_positive_rate_reasonable(self):
        rng = np.random.default_rng(0)
        inserted = rng.integers(0, 2**40, size=20_000, dtype=np.int64)
        bloom = BloomFilter(expected_keys=len(inserted), fpr=0.02)
        bloom.insert(inserted)
        absent = rng.integers(2**41, 2**42, size=50_000, dtype=np.int64)
        fpr = bloom.probe(absent).mean()
        # Blocked filters are a bit worse than the ideal; allow generous slack.
        assert fpr < 0.12

    def test_empty_probe(self):
        bloom = BloomFilter(expected_keys=10)
        assert bloom.probe(np.array([], dtype=np.int64)).shape == (0,)

    def test_empty_filter_rejects_most_keys(self):
        bloom = BloomFilter(expected_keys=1000)
        keys = np.arange(1000, dtype=np.int64)
        assert bloom.probe(keys).sum() == 0

    def test_contains_scalar(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.insert(np.array([42], dtype=np.int64))
        assert bloom.contains(42)

    def test_negative_keys_supported(self):
        keys = np.array([-1, -1000, -(2**40)], dtype=np.int64)
        bloom = BloomFilter(expected_keys=3)
        bloom.insert(keys)
        assert bloom.probe(keys).all()

    def test_statistics_counters(self):
        bloom = BloomFilter(expected_keys=100)
        bloom.insert(np.arange(100, dtype=np.int64))
        bloom.probe(np.arange(50, dtype=np.int64))
        assert bloom.statistics.keys_inserted == 100
        assert bloom.statistics.keys_probed == 50
        assert bloom.statistics.probes_passed == 50
        assert bloom.statistics.observed_pass_rate == 1.0

    def test_size_bytes(self):
        bloom = BloomFilter(expected_keys=1000)
        assert bloom.size_bytes == bloom.num_blocks * 8

    @given(
        st.lists(st.integers(min_value=-(2**62), max_value=2**62 - 1), min_size=1, max_size=500),
        st.lists(st.integers(min_value=-(2**62), max_value=2**62 - 1), max_size=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives_property(self, inserted, probed):
        """A Bloom filter may return false positives but never false negatives."""
        bloom = BloomFilter(expected_keys=len(inserted))
        bloom.insert(np.asarray(inserted, dtype=np.int64))
        probe_keys = np.asarray(inserted + probed, dtype=np.int64)
        hits = bloom.probe(probe_keys)
        assert hits[: len(inserted)].all()


# ---------------------------------------------------------------------------
# The hashing pass against its one-expression formulas
# ---------------------------------------------------------------------------
U64 = np.uint64


def _formula_hashes(keys: np.ndarray) -> np.ndarray:
    """splitmix64, whole-array: the expression the blocked pass must equal."""
    z = np.asarray(keys, dtype=np.int64).view(U64) + U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> U64(30))) * U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> U64(27))) * U64(0x94D049BB133111EB)
    return z ^ (z >> U64(31))


def _formula_patterns(hashes: np.ndarray) -> np.ndarray:
    pattern = np.zeros(hashes.shape, dtype=U64)
    for i in range(BITS_PER_KEY):
        pattern |= U64(1) << (((hashes >> U64(6 * (i + 1))) ^ (hashes >> U64(32 + 3 * i))) & U64(63))
    return pattern


class TestBlockedHashingPass:
    """Same formula, same bits, whatever the block edges cut through."""

    SIZES = (0, 1, _HASH_BLOCK - 1, _HASH_BLOCK, _HASH_BLOCK + 1, 3 * _HASH_BLOCK + 7)

    @staticmethod
    def _same(actual: np.ndarray, expected: np.ndarray) -> None:
        assert actual.dtype == expected.dtype == U64 and actual.flags.c_contiguous
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("size", SIZES)
    def test_hashes_and_patterns_equal_the_formulas(self, size):
        keys = np.random.default_rng(size).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=size, dtype=np.int64, endpoint=True
        )
        # int64 extremes (the uint64 arithmetic must wrap) at both ends, so
        # a block edge that drops or repeats a key cannot hide.
        keys[:3] = (np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1)[: keys[:3].size]
        keys[-2:] = (np.iinfo(np.int64).max, 0)[: keys[-2:].size]
        hashes = hash_keys(keys)
        self._same(hashes, _formula_hashes(keys))
        self._same(key_patterns(hashes), _formula_patterns(hashes))
        # Strided inputs: every other key, every other hash, and reversed.
        self._same(hash_keys(keys[::2]), _formula_hashes(keys[::2]))
        self._same(hash_keys(keys[::-1]), _formula_hashes(keys)[::-1].copy())
        self._same(key_patterns(hashes[::2]), _formula_patterns(hashes[::2]))

    def test_hashing_reads_but_never_writes_its_input(self):
        keys = np.arange(5, dtype=np.int64)
        keys.flags.writeable = False
        hashes = hash_keys(keys)
        hashes.flags.writeable = False
        self._same(key_patterns(hashes), _formula_patterns(hashes))
        assert keys.tolist() == [0, 1, 2, 3, 4]

    def test_probe_with_replayed_pass_equals_probe_with_keys(self):
        keys = np.arange(3 * _HASH_BLOCK + 7, dtype=np.int64) * 7
        bloom = BloomFilter(expected_keys=keys.size // 2)
        bloom.insert(keys[::2])
        hashes = hash_keys(keys)
        np.testing.assert_array_equal(
            bloom.probe(keys), bloom.probe(hashes=hashes, patterns=key_patterns(hashes))
        )
        assert bloom.probe(keys[::2]).all()
