"""Cardinality estimation with injectable estimation error.

The estimator implements the three textbook assumptions the paper recounts
in §2.1 — uniformity, independence, and inclusion — on top of the per-column
distinct counts maintained by the catalog.  Join cardinalities therefore
follow ``|R ⋈ S| = |R| · |S| / max(ndv_R(k), ndv_S(k))``.

Because the central argument of the paper is that these estimates are often
wrong by orders of magnitude (and that Robust Predicate Transfer makes
execution insensitive to that), the estimator supports *error injection*: a
deterministic, per-relation multiplicative error sampled log-uniformly from
``[1/error_factor, error_factor]``.  Experiments can thus dial in "the
optimizer is wrong by up to 100x" and observe how the baseline's plan quality
collapses while RPT's does not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.bloom.bloom_filter import hash_keys
from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.expr.selectivity import estimate_selectivity
from repro.query import QuerySpec
from repro.storage.catalog import Catalog


# ---------------------------------------------------------------------------
# KMV distinct-count sketch
# ---------------------------------------------------------------------------
#: Default number of minimum hash values retained by a :class:`KMVSketch`
#: (relative error ~ 1/sqrt(k) ≈ 3%).
KMV_DEFAULT_K = 1024

#: Size of the partitioned candidate pool the sketch builder extracts before
#: deduplicating (a small multiple of k so duplicate-heavy columns still
#: yield k distinct minima without sorting the whole array).
_KMV_POOL_FACTOR = 4

#: Smallest usable KMV sample: below this many distinct pool values the
#: estimator's variance is useless and the builder takes one exact pass.
_KMV_MIN_SAMPLE = 16

_HASH_SPACE = 2.0**64


@dataclass(frozen=True)
class KMVSketch:
    """A k-minimum-values distinct-count sketch over one key column.

    The sketch stores the ``k`` smallest *distinct* splitmix64 hash values of
    the column.  Because the hashes are (near-)uniform over ``[0, 2^64)``,
    the k-th smallest value ``m`` estimates the distinct count as
    ``(k - 1) · 2^64 / m`` (the classic KMV/bottom-k estimator).  Building
    the sketch is one vectorized hashing pass plus an ``O(n)`` partition;
    the encoding chooser uses it to estimate a column's cardinality.

    ``exact`` marks sketches whose column had at most ``k`` distinct hash
    values; their ``estimate`` is the exact distinct count (modulo 64-bit
    hash collisions, negligible at these scales).
    """

    k: int
    minima: np.ndarray
    exact: bool

    @classmethod
    def from_values(cls, values: np.ndarray, k: int = KMV_DEFAULT_K) -> "KMVSketch":
        """Build a sketch from raw (integer-backed) key values."""
        values = np.asarray(values)
        if values.size == 0:
            if k <= 1:
                raise OptimizerError(f"KMV sketch needs k > 1, got {k}")
            return cls(k=k, minima=np.zeros(0, dtype=np.uint64), exact=True)
        return cls.from_hashes(hash_keys(values), k=k)

    @classmethod
    def from_hashes(cls, hashes: np.ndarray, k: int = KMV_DEFAULT_K) -> "KMVSketch":
        """Build a sketch from an already-computed splitmix64 hashing pass.

        Lets callers that hold a cached full-column pass (the query-lifetime
        :class:`~repro.exec.hashcache.HashCache`) sketch without re-hashing.
        """
        if k <= 1:
            raise OptimizerError(f"KMV sketch needs k > 1, got {k}")
        hashes = np.asarray(hashes)
        if hashes.size == 0:
            return cls(k=k, minima=np.zeros(0, dtype=np.uint64), exact=True)
        pool_size = k * _KMV_POOL_FACTOR
        if hashes.size <= pool_size:
            distinct = np.unique(hashes)
            return cls(k=k, minima=distinct[:k].copy(), exact=distinct.size < k)
        # O(n) partition: the pool holds every element <= the pool_size-th
        # smallest hash, so its distinct values are exactly the smallest
        # distinct hash values of the whole column.
        pool = np.partition(hashes, pool_size - 1)[:pool_size]
        distinct = np.unique(pool)
        if distinct.size >= k:
            return cls(k=k, minima=distinct[:k].copy(), exact=False)
        if distinct.size >= _KMV_MIN_SAMPLE:
            # Duplicate-heavy column flooded the pool below k distinct
            # values.  The d values present are still the d smallest
            # distinct hashes, i.e. a valid KMV sample of order d — use it
            # (higher variance, ~1/sqrt(d)) instead of sorting the column.
            return cls(k=int(distinct.size), minima=distinct.copy(), exact=False)
        # Near-constant column: one exact pass is cheap (mostly duplicates)
        # and the tiny distinct set makes the estimator unusable anyway.
        distinct = np.unique(hashes)
        return cls(k=k, minima=distinct[:k].copy(), exact=distinct.size < k)

    @property
    def estimate(self) -> float:
        """Estimated number of distinct values in the sketched column."""
        if self.minima.size == 0:
            return 0.0
        if self.exact or self.minima.size < self.k:
            return float(self.minima.size)
        return (self.k - 1) * _HASH_SPACE / (float(self.minima[self.k - 1]) + 1.0)

    @property
    def nbytes(self) -> int:
        """Bytes held by the sketch (what the artifact cache charges)."""
        return int(self.minima.nbytes)


def kmv_distinct_estimate(values: np.ndarray, k: int = KMV_DEFAULT_K) -> float:
    """One-shot distinct-count estimate of ``values`` via a KMV sketch."""
    return KMVSketch.from_values(values, k=k).estimate


@dataclass(frozen=True)
class EstimationErrorModel:
    """Deterministic multiplicative error applied to base-table estimates.

    Attributes
    ----------
    error_factor:
        Maximum multiplicative error; 1.0 means exact estimates.
    seed:
        Seed for the per-relation error draw (deterministic per relation).
    """

    error_factor: float = 1.0
    seed: int = 0

    def factor_for(self, alias: str) -> float:
        """The error multiplier applied to the estimate of ``alias``."""
        if self.error_factor <= 1.0:
            return 1.0
        rng = random.Random(f"{self.seed}:{alias}")
        log_max = math.log(self.error_factor)
        return math.exp(rng.uniform(-log_max, log_max))


class ClassProfile(NamedTuple):
    """What a set of relations contributes to a join-cardinality estimate.

    Attributes
    ----------
    touched:
        Bit ``j`` is set when the set has a column in the ``j``-th attribute
        class (``JoinGraph.attribute_classes`` order).
    ndvs:
        Per attribute class, the largest distinct count among the set's
        columns in it (0 where the class is untouched).
    """

    touched: int
    ndvs: Tuple[int, ...]

    def merged(self, other: "ClassProfile") -> "ClassProfile":
        """The profile of the union of two sets of relations."""
        return ClassProfile(self.touched | other.touched, tuple(map(max, self.ndvs, other.ndvs)))


class CardinalityEstimator:
    """Estimates base-relation and join cardinalities for the optimizer."""

    def __init__(
        self,
        catalog: Catalog,
        query: QuerySpec,
        graph: JoinGraph,
        error_model: Optional[EstimationErrorModel] = None,
        rows_upper_bounds: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.catalog = catalog
        self.query = query
        self.graph = graph
        self.error_model = error_model or EstimationErrorModel()
        #: alias -> hard upper bound on rows surviving the base predicate,
        #: derived from zone maps before execution (block-encoded runs only;
        #: absent aliases keep the textbook estimate).
        self.rows_upper_bounds = dict(rows_upper_bounds or {})
        self._base_estimates: Dict[str, float] = {}
        self._distinct_cache: Dict[tuple[str, str], int] = {}
        self._populate_base_estimates()
        #: Per attribute class, the distinct count of every relation's column
        #: in it, by bit of the graph's index (0 for relations outside the
        #: class).
        self._class_ndvs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                self.distinct_count(alias, ac.column_of(alias)) if ac.touches(alias) else 0
                for alias in graph.sorted_aliases
            )
            for ac in graph.attribute_classes.values()
        )

    # ------------------------------------------------------------------
    # Base relations
    # ------------------------------------------------------------------
    def _populate_base_estimates(self) -> None:
        for ref in self.query.relations:
            stats = self.catalog.statistics(ref.table)
            selectivity = estimate_selectivity(ref.filter, stats)
            estimate = stats.num_rows * selectivity
            estimate *= self.error_model.factor_for(ref.alias)
            estimate = max(estimate, 1.0)
            bound = self.rows_upper_bounds.get(ref.alias)
            if bound is not None:
                # A zone-map bound is a hard ceiling on matching rows, so it
                # caps the (error-injected) textbook estimate — including
                # past the 1-row floor when every block provably misses the
                # predicate (the floor only guards *unknown* selectivities).
                estimate = min(estimate, float(bound))
            self._base_estimates[ref.alias] = estimate

    def base_cardinality(self, alias: str) -> float:
        """Estimated cardinality of a (filtered) base relation."""
        try:
            return self._base_estimates[alias]
        except KeyError:
            raise OptimizerError(f"unknown relation alias {alias!r}") from None

    def distinct_count(self, alias: str, column: str) -> int:
        """Distinct count of ``alias.column`` from catalog statistics."""
        key = (alias, column)
        if key not in self._distinct_cache:
            ref = self.query.relation(alias)
            stats = self.catalog.statistics(ref.table)
            self._distinct_cache[key] = stats.distinct(column)
        return self._distinct_cache[key]

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def class_profile(self, mask: int) -> ClassProfile:
        """The :class:`ClassProfile` of a relation mask of the join graph."""
        touched = 0
        ndvs = []
        for j, (members, per_bit) in enumerate(zip(self.graph.class_masks, self._class_ndvs)):
            inside = members & mask
            if inside:
                touched |= 1 << j
            ndvs.append(max((ndv for i, ndv in enumerate(per_bit) if inside >> i & 1), default=0))
        return ClassProfile(touched, tuple(ndvs))

    @staticmethod
    def join_cardinality_of(
        left: ClassProfile,
        right: ClassProfile,
        left_cardinality: float,
        right_cardinality: float,
    ) -> float:
        """Estimate ``|left ⋈ right|`` under the independence assumption.

        Every attribute class shared between the two sides contributes a
        ``1 / max(ndv)`` reduction factor, applied in ``attribute_classes``
        order; without a shared class the join is a Cartesian product.
        """
        result = left_cardinality * right_cardinality
        shared = left.touched & right.touched
        if not shared:
            return result
        left_ndvs, right_ndvs = left.ndvs, right.ndvs
        while shared:
            low = shared & -shared
            shared ^= low
            j = low.bit_length() - 1
            result /= max(left_ndvs[j], right_ndvs[j], 1)
        return max(result, 1.0)

    def join_cardinality(
        self,
        left_aliases: FrozenSet[str],
        right_aliases: FrozenSet[str],
        left_cardinality: float,
        right_cardinality: float,
    ) -> float:
        """:meth:`join_cardinality_of` for two sets of aliases."""
        return self.join_cardinality_of(
            self.class_profile(self.graph.mask_of(left_aliases)),
            self.class_profile(self.graph.mask_of(right_aliases)),
            left_cardinality,
            right_cardinality,
        )

    def estimate_plan_cardinalities(self, order: list[str]) -> list[float]:
        """Cardinality of every prefix of a left-deep join order."""
        if not order:
            return []
        current = self.base_cardinality(order[0])
        cardinalities = [current]
        joined = self.class_profile(self.graph.mask_of(order[:1]))
        for alias in order[1:]:
            added = self.class_profile(self.graph.mask_of((alias,)))
            current = self.join_cardinality_of(
                joined, added, current, self.base_cardinality(alias)
            )
            joined = joined.merged(added)
            cardinalities.append(current)
        return cardinalities
