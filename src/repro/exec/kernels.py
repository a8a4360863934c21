"""Low-level vectorized kernels shared by the pipeline executor.

Everything here operates on plain NumPy ``int64`` arrays; higher layers are
responsible for translating logical columns (including dictionary-encoded
strings and composite keys) into these arrays.

The central kernel is :func:`match_keys`, the equi-join matcher used by the
hash-join operator.  It uses a sort + binary-search strategy, which is the
NumPy-friendly equivalent of building and probing a hash table: ``O(n log n)``
to "build" (sort) and ``O(log n)`` per probe, with every step fully
vectorized.

For build sides that outgrow the caches, :func:`radix_partition` and
:class:`PartitionedHashIndex` provide the radix-partitioned variant: both
join sides are split by a multiplicative key hash in O(n) (NumPy radix-sorts
the small ``uint16`` partition ids), each partition is sorted independently
(the unit of parallel work for the morsel backend), and probes binary-search
only their own cache-resident partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError


@dataclass(frozen=True)
class JoinMatches:
    """The result of matching probe keys against build keys.

    ``probe_indices[i]`` joins with ``build_indices[i]`` for every ``i``;
    both arrays have the same length (the join output cardinality).
    """

    probe_indices: np.ndarray
    build_indices: np.ndarray

    @property
    def num_matches(self) -> int:
        """Number of output tuples produced by the join."""
        return int(self.probe_indices.shape[0])


def combine_key_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Combine several integer key columns into one collision-free ``int64`` key.

    The columns are densified with :func:`numpy.unique` and combined with a
    mixed-radix encoding, so equal composite keys map to equal combined keys
    and unequal ones stay distinct (no hashing, no collisions).  All columns
    must have identical length.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns:
        raise ExecutionError("combine_key_columns requires at least one column")
    length = columns[0].shape[0]
    for column in columns:
        if column.shape[0] != length:
            raise ExecutionError("key columns must all have the same length")
    if len(columns) == 1:
        return columns[0].astype(np.int64, copy=False)
    combined = np.zeros(length, dtype=np.int64)
    for column in columns:
        _, codes = np.unique(column, return_inverse=True)
        radix = int(codes.max()) + 1 if length else 1
        combined = combined * np.int64(radix) + codes.astype(np.int64)
    return combined


def combine_key_columns_pair(
    left_columns: Sequence[np.ndarray],
    right_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine composite keys *consistently* across two sides of a join.

    The densification must use a shared dictionary for both sides, otherwise
    equal composite values could map to different codes.  Returns the
    combined key arrays for the left and right side.
    """
    left_columns = [np.asarray(c) for c in left_columns]
    right_columns = [np.asarray(c) for c in right_columns]
    if len(left_columns) != len(right_columns):
        raise ExecutionError("both sides of a join must have the same number of key columns")
    if len(left_columns) == 1:
        return (
            left_columns[0].astype(np.int64, copy=False),
            right_columns[0].astype(np.int64, copy=False),
        )
    n_left = left_columns[0].shape[0]
    n_right = right_columns[0].shape[0]
    left_combined = np.zeros(n_left, dtype=np.int64)
    right_combined = np.zeros(n_right, dtype=np.int64)
    for left_col, right_col in zip(left_columns, right_columns):
        both = np.concatenate([left_col, right_col])
        _, codes = np.unique(both, return_inverse=True)
        radix = int(codes.max()) + 1 if both.size else 1
        left_combined = left_combined * np.int64(radix) + codes[:n_left].astype(np.int64)
        right_combined = right_combined * np.int64(radix) + codes[n_left:].astype(np.int64)
    return left_combined, right_combined


class HashIndex:
    """A reusable membership/matching index over one side of a join.

    Building the index — the stable sort behind :func:`match_keys`, or the
    bitmap table behind fast membership — is the expensive part of both
    matching and semi-joins.  When the same build side is probed by several
    pipelines — e.g. a join-tree node that reduces multiple children during
    the backward transfer pass, or a base relation probed by the transfer
    phase and again by the join phase — wrapping it in a ``HashIndex``
    builds once and amortizes the cost across every probe.

    Both structures are built lazily: :meth:`match` needs the sort,
    :meth:`contains` prefers an O(1)-per-probe bitmap when the integer key
    domain is bounded (ids, dictionary codes) and otherwise falls back to
    ``np.isin`` / binary search, whichever is cheaper given what is already
    cached.
    """

    __slots__ = (
        "keys",
        "_order",
        "_sorted_keys",
        "_table",
        "_table_lo",
        "_table_hi",
        "_fallback_probes",
        "_probe_rows_seen",
        "_key_bounds",
        "_frozen",
    )

    #: Hard cap on the bitmap fast-path size (entries; 1 byte each).
    TABLE_MAX_ENTRIES = 1 << 26

    def __init__(self, keys: np.ndarray, order: Optional[np.ndarray] = None) -> None:
        """Index ``keys``; ``order`` is an optional precomputed stable
        argsort of them (e.g. replayed from a cached artifact over the same
        base column), which skips the build-side sort entirely."""
        self.keys = np.asarray(keys)
        self._order: "np.ndarray | None" = None if order is None else np.asarray(order)
        self._sorted_keys: "np.ndarray | None" = None
        self._table: "np.ndarray | None" = None
        self._table_lo = 0
        self._table_hi = 0
        self._fallback_probes = 0
        self._probe_rows_seen = 0
        self._key_bounds: "tuple[int, int] | None" = None
        self._frozen = False

    @property
    def num_keys(self) -> int:
        """Number of indexed build-side keys."""
        return int(self.keys.shape[0])

    @property
    def order(self) -> np.ndarray:
        """Stable sort permutation of the keys (computed lazily, then cached)."""
        if self._order is None:
            self._order = np.argsort(self.keys, kind="stable")
        return self._order

    @property
    def sorted_keys(self) -> np.ndarray:
        """The keys in sorted order (computed lazily, then cached)."""
        if self._sorted_keys is None:
            self._sorted_keys = self.keys[self.order]
        return self._sorted_keys

    def bitmap_worthwhile(self, extra_probe_rows: int = 0) -> bool:
        """True when the bitmap economics accept this index's key domain.

        The table is only worth building when its size (one byte per domain
        entry) is proportional to the work it saves — the indexed keys plus
        every probe row this index has served or is about to serve.  This is
        the single authority on the decision: :meth:`_ensure_table` consults
        it for lazily built tables, and the transfer executor consults
        it (with the step's expected probe volume) before downgrading a
        Bloom step to an exact bitmap semi-join.
        """
        if self._table is not None:
            return True
        if self.num_keys == 0 or not np.issubdtype(self.keys.dtype, np.integer):
            return False
        lo, hi = self.key_bounds()
        key_range = hi - lo + 1
        budget = max(
            1 << 16, 8 * (self.num_keys + self._probe_rows_seen + extra_probe_rows)
        )
        return key_range <= min(budget, self.TABLE_MAX_ENTRIES)

    def _ensure_table(self, probe_rows: int) -> bool:
        """Build (or reuse) the bitmap membership table when it pays off.

        Integer keys over a bounded domain — the common case for ids and
        dictionary codes — admit an O(1)-per-probe bitmap lookup that needs
        no sort at all and beats a binary search per probe.  The table is
        only built when :meth:`bitmap_worthwhile` accepts it — measured over
        *all* probes this index has served, so chunk-at-a-time probing (the
        morsel backend) amortizes toward the same decision a single
        whole-column probe makes — and is cached for later probes.
        """
        if self._table is not None:
            return True
        if not np.issubdtype(self.keys.dtype, np.integer):
            return False
        self._probe_rows_seen += probe_rows
        if not self.bitmap_worthwhile():
            return False
        lo, hi = self.key_bounds()
        self._table_lo, self._table_hi = lo, hi
        table = np.zeros(hi - lo + 1, dtype=bool)
        table[self.keys - lo] = True
        self._table = table
        return True

    def prepare(self, expected_probe_rows: int) -> None:
        """Freeze the index for concurrent read-only :meth:`contains` probes.

        The adaptive strategy choice (bitmap table vs sorted binary search vs
        one-shot ``np.isin``) normally happens lazily on the first probe and
        mutates cached state.  A morsel-parallel backend probes the same
        index from many threads at once, so it calls ``prepare`` once — with
        the *total* probe volume, so the table-vs-sort decision matches what
        a single whole-column probe would choose — and every subsequent
        ``contains`` call is a pure read.
        """
        if self._frozen:
            return
        if self.num_keys:
            if not (
                np.issubdtype(self.keys.dtype, np.integer)
                and self._ensure_table(int(expected_probe_rows))
            ):
                _ = self.sorted_keys  # force the sort so probes never mutate
        self._frozen = True

    def prepare_match(self) -> None:
        """Freeze the index for concurrent read-only :meth:`match` probes."""
        _ = self.sorted_keys
        _ = self.order

    @property
    def has_bitmap(self) -> bool:
        """True when the O(1)-per-probe bitmap membership table is built.

        The transfer executor checks this after :meth:`prepare` to
        decide whether a Bloom step can be downgraded to an exact bitmap
        semi-join (dense key domain) or must keep its Bloom filter.
        """
        return self._table is not None

    def key_bounds(self) -> "tuple[int, int]":
        """(min, max) of the indexed integer keys (computed lazily, cached)."""
        if self._key_bounds is None:
            if self._sorted_keys is not None:
                self._key_bounds = (int(self._sorted_keys[0]), int(self._sorted_keys[-1]))
            else:
                self._key_bounds = (int(self.keys.min()), int(self.keys.max()))
        return self._key_bounds

    def index_bytes(self) -> int:
        """Approximate bytes held by the index (keys + built structures).

        Used by the cross-query artifact cache to charge a frozen index
        against its byte budget.
        """
        total = int(self.keys.nbytes)
        for attr in (self._order, self._sorted_keys, self._table):
            if attr is not None:
                total += int(attr.nbytes)
        return total

    def contains(self, probe_keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask of ``probe_keys`` against the indexed keys."""
        probe_keys = np.asarray(probe_keys)
        if probe_keys.size == 0:
            return np.zeros(0, dtype=bool)
        if self.num_keys == 0:
            return np.zeros(probe_keys.shape[0], dtype=bool)
        if np.issubdtype(probe_keys.dtype, np.integer) and (
            self._table is not None
            or (not self._frozen and self._ensure_table(int(probe_keys.shape[0])))
        ):
            # One subtraction + range test + clipped gather.  int64 offsets
            # can wrap for extreme probe values, but a wrapped difference is
            # always negative (the true difference lies in [2^63, 2^64)), so
            # the in-range test still rejects it.
            offsets = probe_keys - self._table_lo
            in_range = (offsets >= 0) & (offsets <= self._table_hi - self._table_lo)
            assert self._table is not None
            return in_range & self._table.take(offsets, mode="clip")
        probe_rows = int(probe_keys.shape[0])
        if self._sorted_keys is None:
            # Unbounded domain.  NumPy's sort-based isin beats a from-scratch
            # sort + per-probe binary search for a one-shot probe, and stays
            # ahead whenever the probe side dwarfs the key side (measured:
            # binary search costs ~100ns/probe).  Pay the sort only on a
            # *repeat* probe that is no larger than the key side — the
            # chunk-at-a-time reuse pattern — and binary-search from then on.
            self._fallback_probes += 1
            repeat = self._fallback_probes > 1
            if not (repeat and probe_rows <= self.num_keys):
                return np.isin(probe_keys, self.keys)
        sorted_keys = self.sorted_keys
        positions = np.searchsorted(sorted_keys, probe_keys, side="left")
        positions = np.minimum(positions, self.num_keys - 1)
        return sorted_keys[positions] == probe_keys

    def match(self, probe_keys: np.ndarray) -> JoinMatches:
        """All (probe, build) index pairs with equal keys (inner-join matching)."""
        probe_keys = np.asarray(probe_keys)
        if probe_keys.size == 0 or self.num_keys == 0:
            empty = np.zeros(0, dtype=np.int64)
            return JoinMatches(probe_indices=empty, build_indices=empty)

        lo = np.searchsorted(self.sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(self.sorted_keys, probe_keys, side="right")
        counts = hi - lo

        matched = counts > 0
        if not matched.any():
            empty = np.zeros(0, dtype=np.int64)
            return JoinMatches(probe_indices=empty, build_indices=empty)

        matched_probe = np.nonzero(matched)[0]
        matched_counts = counts[matched]
        matched_lo = lo[matched]

        total = int(matched_counts.sum())
        # Expand ranges [lo, lo+count) for every matched probe row without Python loops.
        group_starts = np.repeat(matched_lo, matched_counts)
        within_group = np.arange(total) - np.repeat(
            np.cumsum(matched_counts) - matched_counts, matched_counts
        )
        build_positions = group_starts + within_group

        probe_indices = np.repeat(matched_probe, matched_counts).astype(np.int64)
        build_indices = self.order[build_positions].astype(np.int64)
        return JoinMatches(probe_indices=probe_indices, build_indices=build_indices)


# ---------------------------------------------------------------------------
# Radix partitioning
# ---------------------------------------------------------------------------
#: Fibonacci-hashing multiplier used to spread join keys across partitions.
RADIX_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Default number of radix bits (2^6 = 64 partitions).
DEFAULT_PARTITION_BITS = 6

#: Upper bound on radix bits (partition ids are materialized as ``uint16``).
MAX_PARTITION_BITS = 16


def radix_hash(keys: np.ndarray) -> np.ndarray:
    """Full 64-bit multiplicative (Fibonacci) hash of a key vector.

    The partition id of any radix width derives from these hashes by taking
    the top ``bits`` bits, so one hashing pass per key column serves every
    ``radix_partition`` call over it regardless of the partition count
    (the cacheable pass of the radix-partitioned join path).
    """
    with np.errstate(over="ignore"):
        return np.asarray(keys).astype(np.uint64, copy=False) * RADIX_HASH_MULTIPLIER


def radix_partition_ids(
    keys: np.ndarray, bits: int, hashes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Partition id of every key: the top ``bits`` of a multiplicative hash.

    The multiplicative (Fibonacci) hash spreads clustered key domains —
    dense surrogate ids, dictionary codes — evenly across the ``2**bits``
    partitions; taking the *top* bits keeps the full 64-bit mix.  Both sides
    of a join use the same function, so equal keys always land in the same
    partition.  Returned as ``uint16`` so the partitioning sort below hits
    NumPy's O(n) radix sort for small integer dtypes.  ``hashes`` replays a
    precomputed :func:`radix_hash` pass (bit-identical to hashing ``keys``).
    """
    if not 1 <= bits <= MAX_PARTITION_BITS:
        raise ExecutionError(f"partition bits must be in [1, {MAX_PARTITION_BITS}], got {bits}")
    if hashes is None:
        hashes = radix_hash(keys)
    return (hashes >> np.uint64(64 - bits)).astype(np.uint16)


@dataclass(frozen=True)
class KeyPartitions:
    """One side's keys radix-partitioned: a permutation plus partition offsets.

    ``order`` is a stable permutation grouping rows by partition id (NumPy
    radix-sorts the ``uint16`` ids in O(n), so partitioning never pays a
    comparison sort), ``offsets[p] : offsets[p + 1]`` delimits partition
    ``p`` within ``keys[order]``, and ``partitioned_keys`` is that gathered
    key array.  ``order`` maps positions *within a partition segment* back
    to original row positions.
    """

    bits: int
    order: np.ndarray
    offsets: np.ndarray
    partitioned_keys: np.ndarray

    @property
    def num_partitions(self) -> int:
        """Number of radix partitions (``2**bits``)."""
        return 1 << self.bits

    @property
    def num_rows(self) -> int:
        """Total number of partitioned rows."""
        return int(self.partitioned_keys.shape[0])

    def partition_rows(self, partition: int) -> int:
        """Number of rows in one partition."""
        return int(self.offsets[partition + 1] - self.offsets[partition])

    def segment_keys(self, partition: int) -> np.ndarray:
        """The keys of one partition (a view into the gathered key array)."""
        return self.partitioned_keys[self.offsets[partition] : self.offsets[partition + 1]]

    def segment_order(self, partition: int) -> np.ndarray:
        """Original row positions of one partition's rows."""
        return self.order[self.offsets[partition] : self.offsets[partition + 1]]


def radix_partition(
    keys: np.ndarray,
    bits: int = DEFAULT_PARTITION_BITS,
    hashes: Optional[np.ndarray] = None,
) -> KeyPartitions:
    """Radix-partition a key array into ``2**bits`` hash partitions.

    Runs in O(n): partition ids are one vectorized hash, the grouping
    permutation is NumPy's radix sort over the ``uint16`` ids, and the
    offsets come from ``bincount``.  ``hashes`` is an optional precomputed
    :func:`radix_hash` pass over ``keys`` (the partitioning is then
    bit-identical but skips the hash).
    """
    keys = np.asarray(keys)
    pids = radix_partition_ids(keys, bits, hashes=hashes)
    order = np.argsort(pids, kind="stable").astype(np.int64, copy=False)
    counts = np.bincount(pids, minlength=1 << bits)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return KeyPartitions(bits=bits, order=order, offsets=offsets, partitioned_keys=keys[order])


#: Runs a list of thunks and returns their results in order (a backend hook:
#: the parallel backend dispatches them to its worker pool).
TaskRunner = Callable[[Sequence[Callable[[], object]]], List[object]]


def _run_serial(tasks: Sequence[Callable[[], object]]) -> List[object]:
    return [task() for task in tasks]


class PartitionedHashIndex:
    """A radix-partitioned build side: per-partition :class:`HashIndex` objects.

    Large monolithic build sides are slow to sort (O(n log n) over the whole
    array) and slow to probe (every binary-search step is a cache miss in a
    build array that outgrows the caches).  Radix-partitioning both sides by
    the same key hash fixes both: each partition is sorted independently
    (shorter sorts, and independent units of parallel work — the per-worker
    *partial* builds that a morsel-parallel pipeline breaker merges), and
    probes only search their own cache-resident partition.

    Construction only computes the O(n) partitioning; the per-partition
    indexes are built by :meth:`build` (optionally through a ``run_tasks``
    hook so a parallel backend can build partitions concurrently) or lazily
    on first probe.
    """

    __slots__ = ("partitions", "_indexes")

    def __init__(
        self,
        keys: np.ndarray,
        bits: int = DEFAULT_PARTITION_BITS,
        hashes: Optional[np.ndarray] = None,
    ) -> None:
        self.partitions = radix_partition(keys, bits, hashes=hashes)
        self._indexes: List[Optional[HashIndex]] = [None] * self.partitions.num_partitions

    @property
    def bits(self) -> int:
        """Number of radix bits."""
        return self.partitions.bits

    @property
    def num_partitions(self) -> int:
        """Number of radix partitions."""
        return self.partitions.num_partitions

    @property
    def num_keys(self) -> int:
        """Total number of indexed build-side keys."""
        return self.partitions.num_rows

    def partition_bytes(self, partition: int) -> int:
        """Approximate bytes materialized for one partition (keys + order)."""
        rows = self.partitions.partition_rows(partition)
        return rows * (self.partitions.partitioned_keys.itemsize + 8)

    def _index(self, partition: int) -> HashIndex:
        index = self._indexes[partition]
        if index is None:
            index = HashIndex(self.partitions.segment_keys(partition))
            index.prepare_match()
            self._indexes[partition] = index
        return index

    def build(self, run_tasks: Optional[TaskRunner] = None) -> int:
        """Build the index of every non-empty partition; returns the task count.

        Each partition build is an independent task (sort of that partition's
        keys); ``run_tasks`` lets the caller fan the builds out to worker
        threads and acts as the pipeline breaker that merges the partial
        builds: it returns only when every partition index exists.
        """
        run = run_tasks or _run_serial
        pending = [
            p for p in range(self.num_partitions)
            if self._indexes[p] is None and self.partitions.partition_rows(p) > 0
        ]
        run([(lambda p=p: self._index(p)) for p in pending])
        return len(pending)

    def match(
        self,
        probe_keys: np.ndarray,
        run_tasks: Optional[TaskRunner] = None,
        on_partition: Optional[Callable[[int], None]] = None,
        probe_hashes: Optional[np.ndarray] = None,
    ) -> JoinMatches:
        """All (probe, build) index pairs with equal keys, via per-partition matching.

        The probe side is radix-partitioned with the same hash, each partition
        is matched against its build counterpart (independent tasks), and the
        per-partition matches — expressed in original row positions through
        the two permutations — are concatenated in partition order, so the
        result is deterministic regardless of how ``run_tasks`` schedules the
        work.  ``on_partition`` is called (serially, before the fan-out) for
        every partition the probe will actually visit — the memory governor's
        hook for charging reloads of exactly the spilled partitions the join
        reads.  ``probe_hashes`` replays a precomputed :func:`radix_hash`
        pass over the probe keys.
        """
        probe_keys = np.asarray(probe_keys)
        if probe_keys.size == 0 or self.num_keys == 0:
            empty = np.zeros(0, dtype=np.int64)
            return JoinMatches(probe_indices=empty, build_indices=empty)
        probe_parts = radix_partition(probe_keys, self.bits, hashes=probe_hashes)
        active = [
            p for p in range(self.num_partitions)
            if probe_parts.partition_rows(p) > 0 and self.partitions.partition_rows(p) > 0
        ]
        if on_partition is not None:
            for p in active:
                on_partition(p)

        def match_partition(p: int) -> Tuple[np.ndarray, np.ndarray]:
            local = self._index(p).match(probe_parts.segment_keys(p))
            return (
                probe_parts.segment_order(p)[local.probe_indices],
                self.partitions.segment_order(p)[local.build_indices],
            )

        run = run_tasks or _run_serial
        results = run([(lambda p=p: match_partition(p)) for p in active])
        if not results:
            empty = np.zeros(0, dtype=np.int64)
            return JoinMatches(probe_indices=empty, build_indices=empty)
        return JoinMatches(
            probe_indices=np.concatenate([r[0] for r in results]),
            build_indices=np.concatenate([r[1] for r in results]),
        )


BuildSide = Union[np.ndarray, HashIndex]


def as_hash_index(build: BuildSide) -> HashIndex:
    """Wrap a raw key array in a :class:`HashIndex` (no-op when already indexed)."""
    if isinstance(build, HashIndex):
        return build
    return HashIndex(build)


def match_keys(probe_keys: np.ndarray, build_keys: BuildSide) -> JoinMatches:
    """Find all (probe, build) index pairs with equal keys.

    This is the inner-join matching kernel: for every probe key, all
    positions in ``build_keys`` holding the same value are paired with it.
    ``build_keys`` may be a raw array or an already-built :class:`HashIndex`
    (which skips the build-side sort).
    """
    return as_hash_index(build_keys).match(probe_keys)


def semi_join_mask(keys: np.ndarray, filter_keys: BuildSide) -> np.ndarray:
    """Exact semi-join: boolean mask of ``keys`` present in ``filter_keys``.

    This is the hash-table-based semi-join of the classic Yannakakis
    algorithm (the expensive operation Predicate Transfer replaces with
    Bloom filters).  Membership is tested through :class:`HashIndex`: a
    bitmap table lookup for bounded integer key domains (the common case for
    ids and dictionary codes), falling back to a sort + ``searchsorted``
    binary search — and callers can reuse the index across probes (the
    ``semijoin_kernel`` microbenchmark case measures what reuse saves).
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    index = as_hash_index(filter_keys)
    if index.num_keys == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    return index.contains(keys)


def estimate_join_cardinality(
    probe_rows: int,
    build_rows: int,
    probe_distinct: int,
    build_distinct: int,
) -> float:
    """Textbook join cardinality estimate ``|R||S| / max(ndv_R, ndv_S)``."""
    if probe_rows == 0 or build_rows == 0:
        return 0.0
    denominator = max(probe_distinct, build_distinct, 1)
    return probe_rows * build_rows / denominator


def hash_probe_cost(num_probes: int, build_rows: int) -> float:
    """Abstract cost of probing a hash table ``num_probes`` times.

    The per-probe constant grows slowly with the build size to model cache
    effects (the paper's Figure 16 shows hash probes degrade as the table
    outgrows the caches).  The absolute values are arbitrary cost units used
    only for *relative* comparisons in the simulated cost model.
    """
    if num_probes <= 0:
        return 0.0
    cache_penalty = 1.0 + 0.15 * max(np.log2(max(build_rows, 2)) - 10.0, 0.0)
    return float(num_probes) * cache_penalty


def bloom_probe_cost(num_probes: int, filter_bytes: int) -> float:
    """Abstract cost of probing a blocked Bloom filter ``num_probes`` times.

    Bloom probes touch a single cache line and stay several times cheaper
    than hash probes even for large filters.
    """
    if num_probes <= 0:
        return 0.0
    cache_penalty = 1.0 + 0.05 * max(np.log2(max(filter_bytes, 2)) - 15.0, 0.0)
    return 0.25 * float(num_probes) * cache_penalty
