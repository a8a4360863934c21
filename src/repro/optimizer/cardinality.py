"""Cardinality estimation for the join-order optimizer.

The estimator implements the three textbook assumptions the paper recounts
in §2.1 — uniformity, independence, and inclusion — on top of the per-column
distinct counts maintained by the catalog.  Join cardinalities therefore
follow ``|R ⋈ S| = |R| · |S| / max(ndv_R(k), ndv_S(k))``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Tuple

from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.expr.selectivity import estimate_selectivity
from repro.query import QuerySpec
from repro.storage.catalog import Catalog


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

    def __init__(self, catalog: Catalog, query: QuerySpec, graph: JoinGraph) -> None:
        self.catalog = catalog
        self.query = query
        self.graph = graph
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
            self._base_estimates[ref.alias] = max(stats.num_rows * selectivity, 1.0)

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
