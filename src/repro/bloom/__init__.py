"""Blocked Bloom filters: the filters the transfer phase builds and probes."""

from repro.bloom.bloom_filter import (
    BITS_PER_KEY,
    DEFAULT_FPR,
    BloomFilter,
    BloomFilterStatistics,
    hash_keys,
    key_patterns,
    optimal_num_blocks,
)

__all__ = [
    "BITS_PER_KEY",
    "DEFAULT_FPR",
    "BloomFilter",
    "BloomFilterStatistics",
    "hash_keys",
    "key_patterns",
    "optimal_num_blocks",
]
