"""Join-order optimization: cardinality estimation, cost model, DP/greedy search, random plans."""

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.optimizer.join_order import (
    DP_RELATION_LIMIT,
    JoinOrderOptimizer,
    JoinOrderOptions,
)
from repro.optimizer.random_plans import (
    generate_bushy_plans,
    generate_left_deep_plans,
    iter_all_left_deep_orders,
    paper_sample_size,
    random_bushy_plan,
    random_left_deep_order,
    random_left_deep_plan,
)

__all__ = [
    "DEFAULT_COST_MODEL",
    "DP_RELATION_LIMIT",
    "CardinalityEstimator",
    "CostModel",
    "JoinOrderOptimizer",
    "JoinOrderOptions",
    "generate_bushy_plans",
    "generate_left_deep_plans",
    "iter_all_left_deep_orders",
    "paper_sample_size",
    "random_bushy_plan",
    "random_left_deep_order",
    "random_left_deep_plan",
]
