"""Vectorized execution layer: kernels, backends, executors, statistics."""

from repro.exec.adaptive import DEFAULT_MIN_YIELD, AdaptiveTransferController
from repro.exec.backends import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MORSEL_SIZE,
    ExecutionBackend,
    MorselBackend,
    make_backend,
    num_chunks,
)
from repro.exec.hashcache import HashCache
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    as_hash_index,
    bloom_probe_cost,
    combine_key_columns_pair,
    densify_key_columns_pair,
    hash_probe_cost,
    match_keys,
    semi_join_mask,
)
from repro.exec.pipeline import (
    BaseFilter,
    JoinPhaseOptions,
    PipelineExecutor,
    PipelineResult,
    TransferOptions,
    compute_aggregates,
)
from repro.exec.relation import BoundRelation, IntermediateResult, bind_relations
from repro.exec.spill import SpillManager
from repro.exec.statistics import (
    COUNTERS,
    Counter,
    ExecutionStats,
    JoinStepStats,
    OpStats,
    PhaseTimings,
    TransferStepStats,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MIN_YIELD",
    "DEFAULT_MORSEL_SIZE",
    "AdaptiveTransferController",
    "BaseFilter",
    "BoundRelation",
    "COUNTERS",
    "Counter",
    "ExecutionBackend",
    "ExecutionStats",
    "HashCache",
    "HashIndex",
    "IntermediateResult",
    "JoinMatches",
    "JoinPhaseOptions",
    "JoinStepStats",
    "MorselBackend",
    "OpStats",
    "PhaseTimings",
    "PipelineExecutor",
    "PipelineResult",
    "SpillManager",
    "TransferOptions",
    "TransferStepStats",
    "as_hash_index",
    "bind_relations",
    "bloom_probe_cost",
    "combine_key_columns_pair",
    "densify_key_columns_pair",
    "compute_aggregates",
    "hash_probe_cost",
    "make_backend",
    "match_keys",
    "num_chunks",
    "semi_join_mask",
]
