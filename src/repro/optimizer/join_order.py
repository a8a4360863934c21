"""Join-order optimization: dynamic programming with a greedy fallback.

This mirrors the structure the paper describes for DuckDB's optimizer
(§2.1/§4.1): an exact dynamic program for queries with a manageable number
of relations, and a greedy algorithm (repeatedly join the cheapest pair) for
larger join graphs.

The dynamic program is DPccp (Moerkotte & Neumann, "Analysis of Two Existing
and One New Dynamic Programming Algorithm for the Generation of Optimal Bushy
Join Trees without Cross Products", VLDB 2006): it enumerates exactly the
*csg-cmp pairs* of the join graph — a connected subgraph and a connected,
disjoint, adjacent complement — instead of filtering all 2-partitions of all
subsets.  Sets of relations are integer masks over the
:class:`~repro.core.join_graph.JoinGraph` bit index (bit ``i`` is the
``i``-th alias in sorted order).

Both searches produce a :class:`~repro.plan.join_plan.JoinPlan`; the DP can
be restricted to left-deep plans or allowed to produce bushy plans.  Among
equally cheap splits of a subset the DP keeps the one whose left side is the
smallest mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator, ClassProfile
from repro.optimizer.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.plan.join_plan import JoinNode, JoinPlan, LeafNode, PlanNode

#: Beyond this many relations the exact DP is abandoned for the greedy algorithm.
DP_RELATION_LIMIT = 10


@dataclass(frozen=True)
class JoinOrderOptions:
    """Options for the join-order search."""

    left_deep_only: bool = False
    dp_relation_limit: int = DP_RELATION_LIMIT
    cost_model: CostModel = DEFAULT_COST_MODEL


class JoinOrderOptimizer:
    """Chooses a join order for a query given a cardinality estimator."""

    def __init__(
        self,
        graph: JoinGraph,
        estimator: CardinalityEstimator,
        options: Optional[JoinOrderOptions] = None,
    ) -> None:
        self.graph = graph
        self.estimator = estimator
        self.options = options or JoinOrderOptions()
        #: (probe side, build side) candidates the last :meth:`optimize` costed.
        self.pairs_considered = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(self) -> JoinPlan:
        """Return the chosen join plan (DP when feasible, greedy otherwise)."""
        aliases = self.graph.sorted_aliases
        self.pairs_considered = 0
        if not aliases:
            raise OptimizerError("cannot optimize a query with no relations")
        if not self.graph.is_connected():
            raise OptimizerError(
                f"query {self.graph.query.name!r} has a disconnected join graph; "
                "no Cartesian-product-free plan exists"
            )
        if len(aliases) == 1:
            return JoinPlan.single(aliases[0])
        if len(aliases) <= self.options.dp_relation_limit:
            return self._dynamic_programming()
        return self._greedy()

    # ------------------------------------------------------------------
    # Dynamic programming over csg-cmp pairs
    # ------------------------------------------------------------------
    def _dynamic_programming(self) -> JoinPlan:
        join_cardinality = self.estimator.join_cardinality_of
        join_cost = self.options.cost_model.join_cost
        left_deep_only = self.options.left_deep_only

        # Per subset mask: estimated rows, plan cost, class profile, and the
        # left side of the best split (the right side is the rest).
        cardinality: Dict[int, float] = {}
        cost: Dict[int, float] = {}
        profile: Dict[int, ClassProfile] = {}
        split: Dict[int, int] = {}
        for i, alias in enumerate(self.graph.sorted_aliases):
            cardinality[1 << i] = self.estimator.base_cardinality(alias)
            cost[1 << i] = 0.0
            profile[1 << i] = self.estimator.class_profile(1 << i)

        # A subset's sides are proper submasks, hence smaller integers:
        # ascending order reaches every side before the subsets it builds.
        pairs = _csg_cmp_pairs(self.graph.adjacency_masks)
        considered = 0
        for subset in sorted(pairs):
            best_cost = best_output = 0.0
            best_left = 0
            for first in pairs[subset]:
                second = subset ^ first
                output = join_cardinality(
                    profile[first], profile[second], cardinality[first], cardinality[second]
                )
                children_cost = cost[first] + cost[second]
                # The cost model is asymmetric: try both sides as the probe.
                for left, right in ((first, second), (second, first)):
                    if left_deep_only and right & (right - 1):
                        continue
                    considered += 1
                    candidate = children_cost + join_cost(
                        cardinality[left], cardinality[right], output
                    )
                    if (
                        not best_left
                        or candidate < best_cost
                        or (candidate == best_cost and left < best_left)
                    ):
                        best_cost, best_output, best_left = candidate, output, left
            cardinality[subset] = best_output
            cost[subset] = best_cost
            split[subset] = best_left
            first = pairs[subset][0]
            profile[subset] = profile[first].merged(profile[subset ^ first])
        self.pairs_considered = considered

        def build(mask: int) -> PlanNode:
            left = split.get(mask)
            if left is None:
                return LeafNode(self.graph.sorted_aliases[mask.bit_length() - 1])
            return JoinNode(left=build(left), right=build(mask ^ left))

        return JoinPlan(root=build((1 << len(self.graph.sorted_aliases)) - 1))

    # ------------------------------------------------------------------
    # Greedy fallback
    # ------------------------------------------------------------------
    def _greedy(self) -> JoinPlan:
        """Repeatedly join the pair of current sub-plans with the cheapest join."""
        join_cardinality = self.estimator.join_cardinality_of
        join_cost = self.options.cost_model.join_cost
        adjacency = self.graph.adjacency_masks

        # Per sub-plan mask: plan node, estimated rows, class profile, and the
        # mask of the relations adjacent to any of its members.
        node: Dict[int, PlanNode] = {}
        cardinality: Dict[int, float] = {}
        profile: Dict[int, ClassProfile] = {}
        reach: Dict[int, int] = {}
        for i, alias in enumerate(self.graph.sorted_aliases):
            node[1 << i] = LeafNode(alias)
            cardinality[1 << i] = self.estimator.base_cardinality(alias)
            profile[1 << i] = self.estimator.class_profile(1 << i)
            reach[1 << i] = adjacency[i]

        while len(node) > 1:
            best_pair: Optional[Tuple[int, int]] = None
            best_cost = float("inf")
            best_output = 0.0
            # Sub-plans are disjoint, so ordering them by lowest bit orders
            # them by their sorted alias lists.
            keys = sorted(node, key=lambda mask: mask & -mask)
            for i, left in enumerate(keys):
                for right in keys[i + 1:]:
                    if not reach[left] & right:
                        continue
                    self.pairs_considered += 1
                    output = join_cardinality(
                        profile[left], profile[right], cardinality[left], cardinality[right]
                    )
                    candidate = join_cost(cardinality[left], cardinality[right], output)
                    if candidate < best_cost:
                        best_cost = candidate
                        best_pair = (left, right)
                        best_output = output
            # The graph is connected, so some pair of sub-plans is adjacent;
            # only a cost model that never beats infinity leaves none chosen.
            if best_pair is None:
                raise OptimizerError(
                    f"no join of query {self.graph.query.name!r} has a finite cost"
                )
            left, right = best_pair
            # Keep the smaller estimated side on the build (right) side.
            if cardinality[left] < cardinality[right]:
                joined = JoinNode(left=node[right], right=node[left])
            else:
                joined = JoinNode(left=node[left], right=node[right])
            merged = left | right
            node[merged] = joined
            cardinality[merged] = best_output
            profile[merged] = profile[left].merged(profile[right])
            reach[merged] = reach[left] | reach[right]
            for side in best_pair:
                del node[side], cardinality[side], profile[side], reach[side]
        (root,) = node.values()
        return JoinPlan(root=root)


def _csg_cmp_pairs(adjacency: Sequence[int]) -> Dict[int, List[int]]:
    """Every csg-cmp pair of a graph, grouped by the union of its two sides.

    ``adjacency[i]`` is the mask of the vertices adjacent to vertex ``i``.
    A csg-cmp pair is two disjoint, connected, mutually adjacent vertex sets;
    each unordered pair appears once, as the side holding the pair's lowest
    vertex, in the list of the mask of the union.  This is DPccp's
    ``EnumerateCsg`` / ``EnumerateCmp``.
    """
    reach_of: Dict[int, int] = {0: 0}

    def reach(mask: int) -> int:
        """The vertices adjacent to any vertex of ``mask`` (and maybe its own)."""
        found = reach_of.get(mask)
        if found is None:
            low = mask & -mask
            found = reach_of[mask] = reach(mask ^ low) | adjacency[low.bit_length() - 1]
        return found

    def grow(start: int, excluded: int) -> Iterator[int]:
        """``start`` and each connected superset of it that avoids ``excluded``.

        Every set is produced once: it grows from ``start`` by whole
        breadth-first layers, and a neighbour left out of a layer is
        excluded from all later ones.
        """
        yield start
        stack = [(start, excluded | start)]
        while stack:
            grown, excluded = stack.pop()
            frontier = reach(grown) & ~excluded
            excluded |= frontier
            layer = frontier & -frontier
            while layer:
                yield grown | layer
                stack.append((grown | layer, excluded))
                # Next non-empty subset of the frontier (0 after the last).
                layer = (layer - frontier) & frontier

    pairs: Dict[int, List[int]] = {}
    for lowest in range(len(adjacency)):
        # Connected subgraphs whose lowest vertex is ``lowest`` ...
        up_to_lowest = (2 << lowest) - 1
        for subgraph in grow(1 << lowest, up_to_lowest):
            # ... and their complements among the higher vertices, each grown
            # from its lowest vertex adjacent to the subgraph.
            blocked = up_to_lowest | subgraph
            adjacent = reach(subgraph) & ~blocked
            starts = adjacent
            while starts:
                start = starts & -starts
                starts ^= start
                for complement in grow(start, blocked | (adjacent & (2 * start - 1))):
                    pairs.setdefault(subgraph | complement, []).append(subgraph)
    return pairs
