"""Test-only reference: the ``frozenset`` join-order search as it stood before
the bitset DPccp rewrite.

``ReferenceJoinOrderOptimizer`` is the old ``JoinOrderOptimizer`` verbatim —
DP over every 2-partition of every connected subset with a connectivity
test, and the greedy fallback — and ``reference_join_cardinality`` is the old
``CardinalityEstimator.join_cardinality``.  So that the reference stays
independent of the tables the rewrite added, it reads only the raw data:
``JoinGraph.edges``, ``AttributeClass.members`` (each read once per search,
into a ``_RawGraph``), and the estimator's ``base_cardinality`` /
``distinct_count``.  ``tests/test_join_order_identity.py``
asserts that the production search returns exactly the plans this one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.join_order import JoinOrderOptions
from repro.plan.join_plan import JoinNode, JoinPlan, LeafNode, PlanNode


class _RawGraph:
    """What the reference reads of a join graph, derived once from the raw data.

    ``neighbors``: every alias's neighbours, from ``JoinGraph.edges``.
    ``columns``: per attribute class, in ``attribute_classes`` order, each
    alias it touches and that alias's smallest column, from
    ``AttributeClass.members``.  Built per optimizer (or per call of the
    module functions), so the search does not rescan edges and members for
    every pair it costs.
    """

    def __init__(self, graph: JoinGraph) -> None:
        self.neighbors: Dict[str, frozenset[str]] = {
            alias: frozenset(e.other(alias) for e in graph.edges if alias in e.aliases())
            for alias in graph.aliases
        }
        self.columns: List[Dict[str, str]] = [
            {
                alias: min(column for a, column in attr_class.members if a == alias)
                for alias, _ in attr_class.members
            }
            for attr_class in graph.attribute_classes.values()
        ]


def reference_join_cardinality(
    estimator: CardinalityEstimator,
    left_aliases: FrozenSet[str],
    right_aliases: FrozenSet[str],
    left_cardinality: float,
    right_cardinality: float,
    raw: Optional[_RawGraph] = None,
) -> float:
    """The old ``CardinalityEstimator.join_cardinality``."""
    raw = raw or _RawGraph(estimator.graph)
    shared = [
        columns
        for columns in raw.columns
        if any(a in columns for a in left_aliases) and any(a in columns for a in right_aliases)
    ]
    if not shared:
        # Cartesian product.
        return left_cardinality * right_cardinality
    result = left_cardinality * right_cardinality
    for columns in shared:
        left_ndv = max(
            (estimator.distinct_count(a, columns[a]) for a in left_aliases if a in columns),
            default=1,
        )
        right_ndv = max(
            (estimator.distinct_count(a, columns[a]) for a in right_aliases if a in columns),
            default=1,
        )
        result /= max(left_ndv, right_ndv, 1)
    return max(result, 1.0)


def reference_plan_cardinalities(estimator: CardinalityEstimator, order: list[str]) -> list[float]:
    """The old ``CardinalityEstimator.estimate_plan_cardinalities``."""
    if not order:
        return []
    raw = _RawGraph(estimator.graph)
    cardinalities = [estimator.base_cardinality(order[0])]
    joined: set[str] = {order[0]}
    current = cardinalities[0]
    for alias in order[1:]:
        current = reference_join_cardinality(
            estimator,
            frozenset(joined),
            frozenset({alias}),
            current,
            estimator.base_cardinality(alias),
            raw,
        )
        joined.add(alias)
        cardinalities.append(current)
    return cardinalities


@dataclass
class _SubPlan:
    """Best plan found so far for a subset of relations."""

    node: PlanNode
    cardinality: float
    cost: float


class ReferenceJoinOrderOptimizer:
    """The old join-order search: subset DP with a greedy fallback."""

    def __init__(
        self,
        graph: JoinGraph,
        estimator: CardinalityEstimator,
        options: Optional[JoinOrderOptions] = None,
    ) -> None:
        self.graph = graph
        self.estimator = estimator
        self.options = options or JoinOrderOptions()
        self._raw = _RawGraph(graph)

    def optimize(self) -> JoinPlan:
        aliases = list(self.graph.aliases)
        if not aliases:
            raise OptimizerError("cannot optimize a query with no relations")
        if len(aliases) == 1:
            return JoinPlan.single(aliases[0])
        if len(aliases) <= self.options.dp_relation_limit:
            return self._dynamic_programming()
        return self._greedy()

    def _join_cardinality(self, left, right, left_cardinality, right_cardinality) -> float:
        return reference_join_cardinality(
            self.estimator, left, right, left_cardinality, right_cardinality, self._raw
        )

    # ------------------------------------------------------------------
    # Dynamic programming over connected subsets
    # ------------------------------------------------------------------
    def _dynamic_programming(self) -> JoinPlan:
        aliases = list(self.graph.aliases)
        best: Dict[FrozenSet[str], _SubPlan] = {}
        for alias in aliases:
            subset = frozenset({alias})
            best[subset] = _SubPlan(
                node=LeafNode(alias),
                cardinality=self.estimator.base_cardinality(alias),
                cost=0.0,
            )

        # Enumerate subsets by increasing size.
        all_subsets = sorted(self._connected_subsets(), key=len)
        for subset in all_subsets:
            if len(subset) == 1:
                continue
            best_plan: Optional[_SubPlan] = None
            for left, right in self._splits(subset):
                if left not in best or right not in best:
                    continue
                if not self._sides_connected(left, right):
                    continue
                if self.options.left_deep_only and len(right) != 1:
                    continue
                left_plan, right_plan = best[left], best[right]
                output = self._join_cardinality(
                    left, right, left_plan.cardinality, right_plan.cardinality
                )
                cost = (
                    left_plan.cost
                    + right_plan.cost
                    + self.options.cost_model.join_cost(
                        left_plan.cardinality, right_plan.cardinality, output
                    )
                )
                if best_plan is None or cost < best_plan.cost:
                    best_plan = _SubPlan(
                        node=JoinNode(left=left_plan.node, right=right_plan.node),
                        cardinality=output,
                        cost=cost,
                    )
            if best_plan is not None:
                best[subset] = best_plan

        full = frozenset(aliases)
        if full not in best:
            raise OptimizerError(
                f"query {self.graph.query.name!r} has a disconnected join graph; "
                "no Cartesian-product-free plan exists"
            )
        return JoinPlan(root=best[full].node)

    def _connected_subsets(self) -> list[FrozenSet[str]]:
        """All connected subsets of the join graph (exponential, bounded by the DP limit)."""
        aliases = list(self.graph.aliases)
        found: set[FrozenSet[str]] = {frozenset({a}) for a in aliases}
        frontier = list(found)
        while frontier:
            subset = frontier.pop()
            neighbors: set[str] = set()
            for alias in subset:
                neighbors |= self._raw.neighbors[alias]
            for neighbor in neighbors - set(subset):
                extended = frozenset(subset | {neighbor})
                if extended not in found:
                    found.add(extended)
                    frontier.append(extended)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _splits(self, subset: FrozenSet[str]):
        """All 2-partitions of a subset (each pair yielded once, both orders)."""
        members = sorted(subset)
        n = len(members)
        for bits in range(1, (1 << n) - 1):
            left = frozenset(members[i] for i in range(n) if bits & (1 << i))
            right = subset - left
            yield left, right

    def _sides_connected(self, left: FrozenSet[str], right: FrozenSet[str]) -> bool:
        return any(self._raw.neighbors[a] & right for a in left)

    # ------------------------------------------------------------------
    # Greedy fallback
    # ------------------------------------------------------------------
    def _greedy(self) -> JoinPlan:
        """Repeatedly join the pair of current sub-plans with the cheapest join."""
        plans: Dict[FrozenSet[str], _SubPlan] = {
            frozenset({a}): _SubPlan(
                node=LeafNode(a),
                cardinality=self.estimator.base_cardinality(a),
                cost=0.0,
            )
            for a in self.graph.aliases
        }
        while len(plans) > 1:
            best_pair: Optional[Tuple[FrozenSet[str], FrozenSet[str]]] = None
            best_cost = float("inf")
            best_output = 0.0
            keys = sorted(plans, key=lambda s: sorted(s))
            for i, left in enumerate(keys):
                for right in keys[i + 1:]:
                    if not self._sides_connected(left, right):
                        continue
                    left_plan, right_plan = plans[left], plans[right]
                    output = self._join_cardinality(
                        left, right, left_plan.cardinality, right_plan.cardinality
                    )
                    cost = self.options.cost_model.join_cost(
                        left_plan.cardinality, right_plan.cardinality, output
                    )
                    if cost < best_cost:
                        best_cost = cost
                        best_pair = (left, right)
                        best_output = output
            if best_pair is None:
                raise OptimizerError(
                    f"query {self.graph.query.name!r} has a disconnected join graph; "
                    "no Cartesian-product-free plan exists"
                )
            left, right = best_pair
            left_plan, right_plan = plans.pop(left), plans.pop(right)
            # Keep the smaller estimated side on the build (right) side.
            if left_plan.cardinality < right_plan.cardinality:
                node = JoinNode(left=right_plan.node, right=left_plan.node)
            else:
                node = JoinNode(left=left_plan.node, right=right_plan.node)
            plans[left | right] = _SubPlan(
                node=node,
                cardinality=best_output,
                cost=left_plan.cost + right_plan.cost + best_cost,
            )
        (final,) = plans.values()
        return JoinPlan(root=final.node)
