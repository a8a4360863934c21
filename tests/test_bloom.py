"""Unit and property tests for the blocked Bloom filter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter, optimal_num_blocks
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

    def test_union_requires_same_geometry(self):
        a = BloomFilter(expected_keys=100, num_blocks=16)
        b = BloomFilter(expected_keys=100, num_blocks=32)
        with pytest.raises(ExecutionError):
            a.union_inplace(b)

    def test_union_combines_membership(self):
        a = BloomFilter(expected_keys=100, num_blocks=64)
        b = BloomFilter(expected_keys=100, num_blocks=64)
        a.insert(np.array([1, 2, 3], dtype=np.int64))
        b.insert(np.array([100, 200], dtype=np.int64))
        a.union_inplace(b)
        assert a.probe(np.array([1, 2, 3, 100, 200], dtype=np.int64)).all()

    def test_fill_ratio_increases(self):
        bloom = BloomFilter(expected_keys=1000)
        before = bloom.fill_ratio
        bloom.insert(np.arange(1000, dtype=np.int64))
        assert bloom.fill_ratio > before

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
