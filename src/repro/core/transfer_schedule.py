"""Transfer schedules: the ordered semi-join (Bloom-filter) steps of the transfer phase.

A transfer schedule is a list of :class:`TransferStep` objects.  Each step
``target ⋉ source`` means: build a Bloom filter on ``source``'s current
(already reduced) values of the shared join attributes and use it to filter
``target``.  The schedule has a *forward pass* (filters flow leaf→root of the
join tree, or along the transfer-graph DAG for the original PT) and a
*backward pass* (the reverse), exactly as in the Yannakakis semi-join phase.

Schedules can be derived from:

* a :class:`~repro.core.join_tree.JoinTree` produced by LargestRoot — this is
  Robust Predicate Transfer and guarantees a full reduction for α-acyclic
  queries;
* a :class:`~repro.core.small2large.TransferGraph` produced by Small2Large —
  this is the original Predicate Transfer and may under-reduce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.join_tree import JoinTree
from repro.core.small2large import TransferGraph


class TransferPass(enum.Enum):
    """Which pass of the transfer phase a step belongs to."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class TransferStep:
    """One semi-join reduction ``target ⋉ source`` realized with a Bloom filter.

    Attributes
    ----------
    source:
        The relation whose join-key values populate the Bloom filter.
    target:
        The relation filtered by probing the Bloom filter.
    attributes:
        The shared attribute classes the filter is built/probed on.
    pass_:
        Forward or backward pass.
    """

    source: str
    target: str
    attributes: Tuple[str, ...]
    pass_: TransferPass

    def __repr__(self) -> str:
        arrow = "=>" if self.pass_ is TransferPass.FORWARD else "<="
        return f"{self.target} ⋉ {self.source} ({self.pass_.value}) [{','.join(self.attributes)}]"


@dataclass(frozen=True)
class TransferSchedule:
    """An ordered sequence of transfer steps (forward pass then backward pass)."""

    steps: Tuple[TransferStep, ...]

    @property
    def forward_steps(self) -> Tuple[TransferStep, ...]:
        """Steps belonging to the forward pass, in execution order."""
        return tuple(s for s in self.steps if s.pass_ is TransferPass.FORWARD)

    @property
    def backward_steps(self) -> Tuple[TransferStep, ...]:
        """Steps belonging to the backward pass, in execution order."""
        return tuple(s for s in self.steps if s.pass_ is TransferPass.BACKWARD)

    @property
    def num_steps(self) -> int:
        """Total number of semi-join steps."""
        return len(self.steps)

    def relations_reduced(self) -> frozenset[str]:
        """Relations that appear as the target of at least one step."""
        return frozenset(s.target for s in self.steps)

    @property
    def has_backward_pass(self) -> bool:
        """True when the schedule contains at least one backward-pass step."""
        return any(s.pass_ is TransferPass.BACKWARD for s in self.steps)

    def without_backward_pass(self) -> "TransferSchedule":
        """Drop the backward pass (the §4.3 optimization when the join order
        aligns with the transfer order)."""
        return TransferSchedule(steps=self.forward_steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def schedule_from_tree(tree: JoinTree) -> TransferSchedule:
    """Derive the RPT transfer schedule from a join tree.

    Forward pass: process nodes in post-order (children before parents); for
    every non-root node X emit ``parent(X) ⋉ X``.  Processing X's step only
    after all of X's children have emitted theirs guarantees X's Bloom filter
    reflects X already reduced by its own subtree.

    Backward pass: process nodes in level order from the root; for every
    non-root node X emit ``X ⋉ parent(X)``, so X is reduced by a parent that
    has itself already been backward-reduced.
    """
    steps: List[TransferStep] = []
    for node in tree.post_order():
        if node == tree.root:
            continue
        edge = tree.edge_to_parent(node)
        steps.append(
            TransferStep(
                source=node,
                target=edge.parent,
                attributes=edge.attributes,
                pass_=TransferPass.FORWARD,
            )
        )
    for node in tree.level_order():
        if node == tree.root:
            continue
        edge = tree.edge_to_parent(node)
        steps.append(
            TransferStep(
                source=edge.parent,
                target=node,
                attributes=edge.attributes,
                pass_=TransferPass.BACKWARD,
            )
        )
    return TransferSchedule(steps=tuple(steps))


def schedule_from_transfer_graph(transfer_graph: TransferGraph) -> TransferSchedule:
    """Derive the original-PT transfer schedule from a Small2Large DAG.

    Forward pass: visit relations in topological order; each relation is
    reduced by the Bloom filters of all of its DAG predecessors.  Backward
    pass: visit relations in reverse topological order; each relation is
    reduced by its DAG successors.
    """
    order = transfer_graph.topological_order()
    steps: List[TransferStep] = []
    for target in order:
        for edge in sorted(transfer_graph.incoming(target), key=lambda e: e.source):
            steps.append(
                TransferStep(
                    source=edge.source,
                    target=target,
                    attributes=edge.attributes,
                    pass_=TransferPass.FORWARD,
                )
            )
    for target in reversed(order):
        for edge in sorted(transfer_graph.outgoing(target), key=lambda e: e.target):
            steps.append(
                TransferStep(
                    source=edge.target,
                    target=target,
                    attributes=edge.attributes,
                    pass_=TransferPass.BACKWARD,
                )
            )
    return TransferSchedule(steps=tuple(steps))
