"""The paper's core contribution: join graphs, join trees, LargestRoot,
SafeSubjoin, transfer schedules, and robustness metrics."""

from repro.core.join_graph import AttributeClass, JoinGraph, JoinGraphEdge
from repro.core.join_tree import (
    JoinTree,
    TreeEdge,
    attribute_subgraph_connected,
    gyo_reduction,
    has_composite_edges,
    is_alpha_acyclic,
    is_gamma_acyclic,
    is_join_tree,
    is_maximum_spanning_tree,
    join_tree_from_gyo,
    join_tree_from_parent_map,
    maximum_spanning_tree_weight,
)
from repro.core.largest_root import largest_root, largest_root_random
from repro.core.robustness import (
    BenchmarkRobustnessSummary,
    RobustnessFactor,
    geometric_mean,
    robustness_factor,
    speedup,
    summarize_robustness,
)
from repro.core.safe_subjoin import is_safe_join_order, safe_subjoin, unsafe_prefixes
from repro.core.small2large import TransferGraph, TransferGraphEdge, small2large
from repro.core.transfer_schedule import (
    TransferPass,
    TransferSchedule,
    TransferStep,
    schedule_from_transfer_graph,
    schedule_from_tree,
)

__all__ = [
    "AttributeClass",
    "BenchmarkRobustnessSummary",
    "JoinGraph",
    "JoinGraphEdge",
    "JoinTree",
    "RobustnessFactor",
    "TransferGraph",
    "TransferGraphEdge",
    "TransferPass",
    "TransferSchedule",
    "TransferStep",
    "TreeEdge",
    "attribute_subgraph_connected",
    "geometric_mean",
    "gyo_reduction",
    "has_composite_edges",
    "is_alpha_acyclic",
    "is_gamma_acyclic",
    "is_join_tree",
    "is_maximum_spanning_tree",
    "is_safe_join_order",
    "join_tree_from_gyo",
    "join_tree_from_parent_map",
    "largest_root",
    "largest_root_random",
    "maximum_spanning_tree_weight",
    "robustness_factor",
    "safe_subjoin",
    "schedule_from_transfer_graph",
    "schedule_from_tree",
    "small2large",
    "speedup",
    "summarize_robustness",
    "unsafe_prefixes",
]
