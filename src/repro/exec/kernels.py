"""Low-level vectorized kernels shared by the pipeline executor.

Everything here operates on plain NumPy ``int64`` arrays; higher layers are
responsible for translating logical columns (including dictionary-encoded
strings and composite keys) into these arrays.

The central kernel is :meth:`HashIndex.match` (:func:`match_keys`), the
equi-join matcher of the hash-join operator.  It has two strategies, chosen
per build side from the build rows, the probe rows and the key range (the
one domain rule, :meth:`HashIndex.table_worthwhile`, that also decides the
bitmap behind :meth:`HashIndex.contains`):

* **direct-address** — integer keys over a bounded domain (ids, dictionary
  codes): a table indexed by ``key - min`` built in O(n) with no comparison
  sort, probed with one subtract-and-gather.  Unique build keys (the PK side
  of an FK-PK join) store the build row in the slot itself; duplicate keys
  get CSR run offsets over a grouping permutation made by ``uint16`` radix
  passes.
* **sorted** — everything else: a stable ``argsort`` plus one binary search
  per probe key (run ends are precomputed, so the run of equal keys a probe
  hits needs no second search).

Both emit the same pairs in the same order: probe index ascending, then
build rows in their original (stable) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

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


def _no_matches() -> JoinMatches:
    empty = np.zeros(0, dtype=np.int64)
    return JoinMatches(probe_indices=empty, build_indices=empty)


def _key_columns(left_columns, right_columns):
    left_columns = [np.asarray(c) for c in left_columns]
    right_columns = [np.asarray(c) for c in right_columns]
    if len(left_columns) != len(right_columns):
        raise ExecutionError("both sides of a join must have the same number of key columns")
    return left_columns, right_columns


def combine_key_columns_pair(
    left_columns: Sequence[np.ndarray],
    right_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine composite keys *consistently* across two sides of a join.

    Equal composite values map to equal ``int64`` keys on both sides and
    unequal ones stay distinct (no hashing, no collisions).  Integer columns
    are packed arithmetically — a mixed-radix number whose digits are each
    column's offset from the minimum over both sides — whenever the product
    of the column ranges fits in ``int64``; otherwise (or for non-integer
    columns) :func:`densify_key_columns_pair` takes over, which always fits.
    For exact consumers (:class:`HashIndex`), which only compare keys.
    """
    left_columns, right_columns = _key_columns(left_columns, right_columns)
    if len(left_columns) == 1:
        return densify_key_columns_pair(left_columns, right_columns)
    return _pack_arithmetically(left_columns, right_columns) or densify_key_columns_pair(
        left_columns, right_columns
    )


def densify_key_columns_pair(
    left_columns: Sequence[np.ndarray],
    right_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine composite keys through a dictionary shared by both sides.

    Every column is replaced by the dense ranks of its values over both
    sides (:func:`_dense_ranks`) and the ranks are combined mixed-radix, so
    the combined values depend only on the ranks of the column values.  A
    Bloom filter's false positives depend on the values it hashes, so the
    Bloom steps keep these keys — and with them every tuple count
    downstream — whatever :func:`combine_key_columns_pair` packs for the
    exact ones.
    """
    left_columns, right_columns = _key_columns(left_columns, right_columns)
    if len(left_columns) == 1:
        return (
            left_columns[0].astype(np.int64, copy=False),
            right_columns[0].astype(np.int64, copy=False),
        )
    n_left = left_columns[0].shape[0]
    left_combined = np.zeros(n_left, dtype=np.int64)
    right_combined = np.zeros(right_columns[0].shape[0], dtype=np.int64)
    for left_col, right_col in zip(left_columns, right_columns):
        both = np.concatenate([left_col, right_col])
        codes = _dense_ranks(both)
        radix = int(codes.max()) + 1 if both.size else 1
        left_combined = left_combined * np.int64(radix) + codes[:n_left]
        right_combined = right_combined * np.int64(radix) + codes[n_left:]
    return left_combined, right_combined


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """``np.unique(values, return_inverse=True)[1]`` as ``int64``, without the
    sort when it can be avoided.

    Integers over a domain :meth:`HashIndex.table_worthwhile` accepts rank
    through a presence table: a value's rank is the number of present values
    up to it, ``cumsum(present) - 1`` gathered at ``value - min``.
    """
    if np.issubdtype(values.dtype, np.integer) and values.dtype != np.uint64:
        index = HashIndex(values.astype(np.int64, copy=False))
        if index.table_worthwhile(entry_bytes=8):
            lo, hi = index.key_bounds()
            offsets = index.keys - lo
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[offsets] = True
            ranks = np.cumsum(present)
            ranks -= 1
            return ranks.take(offsets)
    return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)


def _pack_arithmetically(left_columns, right_columns):
    """Mixed-radix packing from per-column min/max; ``None`` when it cannot fit."""
    bounds = []
    capacity = 1
    for left_col, right_col in zip(left_columns, right_columns):
        sides = [c for c in (left_col, right_col) if c.size]
        if not all(np.issubdtype(c.dtype, np.integer) for c in sides):
            return None
        lo = min((int(c.min()) for c in sides), default=0)
        hi = max((int(c.max()) for c in sides), default=0)
        capacity *= hi - lo + 1
        if capacity > np.iinfo(np.int64).max:
            return None
        bounds.append((lo, hi - lo + 1))
    combined = []
    for columns in (left_columns, right_columns):
        packed = np.zeros(columns[0].shape[0], dtype=np.int64)
        for column, (lo, radix) in zip(columns, bounds):
            packed = packed * np.int64(radix) + (column.astype(np.int64, copy=False) - lo)
        combined.append(packed)
    return tuple(combined)


def _radix_argsort(offsets: np.ndarray, key_range: int) -> np.ndarray:
    """Stable argsort of integers in ``[0, key_range)`` without a comparison sort.

    Least-significant-digit passes over 16-bit digits: NumPy's stable sort of
    a ``uint16`` array is an O(n) radix sort, so the whole permutation costs
    one pass per 16 bits of ``key_range``.
    """
    order = np.argsort(offsets.astype(np.uint16), kind="stable")  # astype keeps the low 16 bits
    shift = 16
    while key_range >> shift:
        digits = (offsets >> shift).astype(np.uint16)
        order = order[np.argsort(digits[order], kind="stable")]
        shift += 16
    return order


def _expand_runs(order: np.ndarray, first: np.ndarray, counts: np.ndarray) -> JoinMatches:
    """Pairs for probes that each hit ``order[first : first + counts]`` (no Python loop)."""
    matched_probe = np.flatnonzero(counts)
    if matched_probe.size == 0:
        return _no_matches()
    matched_first = first[matched_probe]
    matched_counts = counts[matched_probe]
    total = int(matched_counts.sum())
    if total == matched_probe.size:  # every hit is a run of one
        return JoinMatches(matched_probe, order[matched_first].astype(np.int64, copy=False))
    run_offsets = np.cumsum(matched_counts) - matched_counts
    positions = np.arange(total) + np.repeat(matched_first - run_offsets, matched_counts)
    return JoinMatches(
        probe_indices=np.repeat(matched_probe, matched_counts),
        build_indices=order[positions].astype(np.int64, copy=False),
    )


class HashIndex:
    """A reusable membership/matching index over one side of a join.

    Building the index — the table or sort behind :meth:`match`, the bitmap
    behind fast membership — is the expensive part of both matching and
    semi-joins.  When the same build side is probed by several pipelines —
    e.g. a join-tree node that reduces multiple children during the backward
    transfer pass, or a base relation probed by the transfer phase and again
    by the join phase — wrapping it in a ``HashIndex`` builds once and
    amortizes the cost across every probe.

    Every structure is built lazily and kept: :meth:`match` builds its
    direct-address table or sorted index on first use
    (:meth:`prepare_match`), :meth:`contains` prefers an O(1)-per-probe
    bitmap and otherwise falls back to ``np.isin`` / binary search,
    whichever is cheaper given what is already cached.  Whether the integer
    key domain is bounded enough for a table is one rule,
    :meth:`table_worthwhile`, for both.
    """

    __slots__ = (
        "keys",
        "_num_keys",
        "_order",
        "_sorted_keys",
        "_run_ends",
        "_table",
        "_slots",
        "_starts",
        "_fallback_probes",
        "_probe_rows_seen",
        "_key_bounds",
        "_frozen",
    )

    #: Hard cap on one direct-address table, in bytes: 2^26 one-byte bitmap
    #: entries for :meth:`contains`, 2^24 ``int32`` slots for :meth:`match`.
    TABLE_MAX_BYTES = 1 << 26

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = np.asarray(keys)
        self._num_keys = int(self.keys.shape[0])
        # Sorted strategy: stable argsort, keys in that order, and for every
        # sorted position the end of its run of equal keys.
        self._order: "np.ndarray | None" = None
        self._sorted_keys: "np.ndarray | None" = None
        self._run_ends: "np.ndarray | None" = None
        # Direct-address structures, all indexed by ``key - min``: the
        # membership bitmap, the build row of a unique key (-1: absent), or
        # CSR run offsets into ``_order`` for duplicate keys.
        self._table: "np.ndarray | None" = None
        self._slots: "np.ndarray | None" = None
        self._starts: "np.ndarray | None" = None
        self._fallback_probes = 0
        self._probe_rows_seen = 0
        self._key_bounds: "tuple[int, int] | None" = None
        self._frozen = False

    def __getstate__(self) -> dict:
        """Pickle what probes read: the built structures, not the raw keys.

        A worker process only calls :meth:`contains` / :meth:`match` on an
        index its parent prepared, and neither reads ``keys`` once its
        structure exists — shipping them would double the shared-memory
        payload of a large build.  An index with nothing built ships whole.
        """
        state = {name: getattr(self, name) for name in self.__slots__}
        if self._frozen or self.match_kind:
            state["keys"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def num_keys(self) -> int:
        """Number of indexed build-side keys."""
        return self._num_keys

    @property
    def sorted_keys(self) -> np.ndarray:
        """The keys in stable sorted order (computed lazily, then cached)."""
        if self._sorted_keys is None:
            self._order = np.argsort(self.keys, kind="stable")
            self._sorted_keys = self.keys[self._order]
        return self._sorted_keys

    def table_worthwhile(self, extra_probe_rows: int = 0, entry_bytes: int = 1) -> bool:
        """True when a direct-address table over this key domain pays off.

        A table indexed by ``key - min`` is only worth building when its
        size is proportional to the work it saves — the indexed keys plus
        every probe row this index has served or is about to serve — and
        stays under :data:`TABLE_MAX_BYTES` at ``entry_bytes`` per entry.
        This is the single authority on the decision: :meth:`_ensure_table`
        consults it for the membership bitmap, :meth:`prepare_match` for the
        join table, and the transfer executor (with the step's expected
        probe volume) before downgrading a Bloom step to an exact bitmap
        semi-join.
        """
        if self.num_keys == 0 or not np.issubdtype(self.keys.dtype, np.integer):
            return False
        lo, hi = self.key_bounds()
        key_range = hi - lo + 1
        budget = max(
            1 << 16, 8 * (self.num_keys + self._probe_rows_seen + extra_probe_rows)
        )
        return key_range <= min(budget, self.TABLE_MAX_BYTES // entry_bytes)

    def _ensure_table(self, probe_rows: int) -> bool:
        """Build (or reuse) the bitmap membership table when it pays off.

        Integer keys over a bounded domain — the common case for ids and
        dictionary codes — admit an O(1)-per-probe bitmap lookup that needs
        no sort at all and beats a binary search per probe.  The table is
        only built when :meth:`table_worthwhile` accepts it — measured over
        *all* probes this index has served, so chunk-at-a-time probing (the
        morsel backend) amortizes toward the same decision a single
        whole-column probe makes — and is cached for later probes.
        """
        if self._table is not None:
            return True
        if not np.issubdtype(self.keys.dtype, np.integer):
            return False
        self._probe_rows_seen += probe_rows
        if not self.table_worthwhile():
            return False
        lo, hi = self.key_bounds()
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

    def prepare_match(self, expected_probe_rows: int = 0) -> None:
        """Build the structure :meth:`match` probes, once; later calls are no-ops.

        The direct-address table when :meth:`table_worthwhile` accepts the
        key domain for ``expected_probe_rows`` — the *total* probe volume, so
        a backend that cuts the probe side into morsels chooses what one
        whole-column :meth:`match` call would — else the sorted index.
        Afterwards ``match`` only reads, from any number of threads.
        """
        if self.match_kind or not self.num_keys:
            return
        # int32 slots / offsets index build rows: 2^31 rows is the format's limit.
        if self.num_keys < 1 << 31 and self.table_worthwhile(
            int(expected_probe_rows), entry_bytes=4
        ):
            self._build_direct()
        else:
            self._build_sorted()

    def _build_direct(self) -> None:
        lo, hi = self.key_bounds()
        key_range = hi - lo + 1
        offsets = self.keys - lo
        rows = np.arange(self.num_keys, dtype=np.int32)
        slots = np.full(key_range, -1, dtype=np.int32)
        slots[offsets] = rows
        if (slots[offsets] == rows).all():  # no row was overwritten: keys are unique
            self._slots = slots
            return
        starts = np.zeros(key_range + 1, dtype=np.int32)
        np.cumsum(np.bincount(offsets, minlength=key_range), out=starts[1:], dtype=np.int32)
        self._order = _radix_argsort(offsets, key_range)
        self._starts = starts

    def _build_sorted(self) -> None:
        sorted_keys = self.sorted_keys
        run_starts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        bounds = np.concatenate(([0], run_starts, [self.num_keys]))
        self._run_ends = np.repeat(bounds[1:], np.diff(bounds))

    @property
    def match_kind(self) -> str:
        """Which structure :meth:`match` probes: ``"direct-unique"``,
        ``"direct"`` (duplicate keys), ``"sorted"``, or ``""`` before it is built."""
        if self._slots is not None:
            return "direct-unique"
        if self._starts is not None:
            return "direct"
        return "sorted" if self._run_ends is not None else ""

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

        What the cross-query artifact cache charges a frozen index against
        its byte budget, and what a hash build reserves with the governor.
        """
        arrays = (
            self.keys, self._order, self._sorted_keys, self._run_ends,
            self._table, self._slots, self._starts,
        )
        return sum(int(array.nbytes) for array in arrays if array is not None)

    def _table_offsets(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``probe_keys - min`` and which of them fall inside the table.

        int64 offsets can wrap for extreme probe values, but a wrapped
        difference is always negative (the true difference lies in
        [2^63, 2^64)), so the in-range test still rejects it; callers gather
        with ``mode="clip"`` and mask.
        """
        lo, hi = self.key_bounds()
        offsets = probe_keys - lo
        return offsets, (offsets >= 0) & (offsets <= hi - lo)

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
            offsets, in_range = self._table_offsets(probe_keys)
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
        """All (probe, build) index pairs with equal keys (inner-join matching).

        Pairs come out probe index ascending, then build rows in their
        original order, whichever structure answers.
        """
        probe_keys = np.asarray(probe_keys)
        if probe_keys.size == 0 or self.num_keys == 0:
            return _no_matches()
        self.prepare_match(int(probe_keys.shape[0]))
        if self._run_ends is not None:
            first = np.minimum(
                np.searchsorted(self._sorted_keys, probe_keys, side="left"), self.num_keys - 1
            )
            counts = np.where(
                self._sorted_keys[first] == probe_keys, self._run_ends[first] - first, 0
            )
            return _expand_runs(self._order, first, counts)
        offsets, in_range = self._table_offsets(probe_keys)
        if self._slots is not None:
            rows = self._slots.take(offsets, mode="clip")
            matched_probe = np.flatnonzero(in_range & (rows >= 0))
            return JoinMatches(matched_probe, rows[matched_probe].astype(np.int64))
        first = self._starts.take(offsets, mode="clip")
        counts = np.where(in_range, self._starts.take(offsets + 1, mode="clip") - first, 0)
        return _expand_runs(self._order, first, counts)


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
