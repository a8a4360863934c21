"""Join-phase plan trees (left-deep and bushy).

A :class:`JoinPlan` describes *in which order* the (reduced) relations of a
query are combined with binary hash joins.  It deliberately carries no
physical details beyond build/probe sides — the execution layer resolves the
join keys from the query's join conditions.

Plans are binary trees whose leaves are relation aliases:

* a **left-deep** plan has a base relation as the right child of every join
  (the left child is the running intermediate);
* a **bushy** plan may join two intermediates.

By convention the *right* child of a join node is the build side (base
tables / smaller inputs in left-deep plans) and the *left* child is the
probe side, matching the paper's Figure 10 discussion of picking build
sides; the executor can flip sides per node for the Figure 10 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro.errors import PlanError


@dataclass(frozen=True)
class LeafNode:
    """A plan leaf: one base relation occurrence."""

    alias: str

    @property
    def aliases(self) -> frozenset[str]:
        """The single alias of this leaf."""
        return frozenset({self.alias})

    def __repr__(self) -> str:
        return self.alias


@dataclass(frozen=True)
class JoinNode:
    """A binary join of two sub-plans.

    Attributes
    ----------
    left:
        Probe side (by convention).
    right:
        Build side (by convention).
    flip_build_side:
        When True the executor builds the hash table on ``left`` instead,
        reproducing the "wrong build side" scenario of Figure 10.
    """

    left: "PlanNode"
    right: "PlanNode"
    flip_build_side: bool = False

    @property
    def aliases(self) -> frozenset[str]:
        """All relation aliases below this node."""
        return self.left.aliases | self.right.aliases

    def __repr__(self) -> str:
        return f"({self.left!r} ⋈ {self.right!r})"


PlanNode = Union[LeafNode, JoinNode]


@dataclass(frozen=True)
class JoinPlan:
    """A complete join-phase plan for a query."""

    root: PlanNode

    @property
    def aliases(self) -> frozenset[str]:
        """All relation aliases joined by the plan."""
        return self.root.aliases

    @property
    def num_joins(self) -> int:
        """Number of binary join nodes."""
        return sum(1 for node in self.nodes() if isinstance(node, JoinNode))

    def nodes(self) -> Iterator[PlanNode]:
        """All plan nodes in post-order (children before parents)."""
        yield from _post_order(self.root)

    def join_nodes(self) -> Iterator[JoinNode]:
        """Only the join nodes, in execution (post) order."""
        for node in self.nodes():
            if isinstance(node, JoinNode):
                yield node

    def is_left_deep(self) -> bool:
        """True when every join's right child is a leaf and the left spine nests."""
        node = self.root
        while isinstance(node, JoinNode):
            if not isinstance(node.right, LeafNode):
                return False
            node = node.left
        return isinstance(node, LeafNode)

    def left_deep_order(self) -> tuple[str, ...]:
        """The relation order of a left-deep plan, first-joined first.

        Raises
        ------
        PlanError
            If the plan is not left-deep.
        """
        if not self.is_left_deep():
            raise PlanError("plan is not left-deep")
        reversed_order: list[str] = []
        node = self.root
        while isinstance(node, JoinNode):
            assert isinstance(node.right, LeafNode)
            reversed_order.append(node.right.alias)
            node = node.left
        assert isinstance(node, LeafNode)
        reversed_order.append(node.alias)
        return tuple(reversed(reversed_order))

    def describe(self) -> str:
        """A single-line human-readable rendering of the plan."""
        return repr(self.root)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_left_deep(cls, order: Sequence[str]) -> "JoinPlan":
        """Build a left-deep plan joining relations in the given order."""
        if not order:
            raise PlanError("a join plan needs at least one relation")
        node: PlanNode = LeafNode(order[0])
        for alias in order[1:]:
            node = JoinNode(left=node, right=LeafNode(alias))
        return cls(root=node)

    @classmethod
    def single(cls, alias: str) -> "JoinPlan":
        """A trivial plan over a single relation."""
        return cls(root=LeafNode(alias))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinPlan({self.describe()})"


def _post_order(node: PlanNode) -> Iterator[PlanNode]:
    if isinstance(node, JoinNode):
        yield from _post_order(node.left)
        yield from _post_order(node.right)
    yield node


def validate_plan_for_query(plan: JoinPlan, aliases: Sequence[str]) -> None:
    """Check that ``plan`` joins exactly the relations of the query.

    Raises
    ------
    PlanError
        If leaves are missing, duplicated, or unknown.
    """
    leaf_aliases = [node.alias for node in plan.nodes() if isinstance(node, LeafNode)]
    if len(leaf_aliases) != len(set(leaf_aliases)):
        raise PlanError("join plan references a relation more than once")
    expected = set(aliases)
    actual = set(leaf_aliases)
    if actual != expected:
        missing = expected - actual
        extra = actual - expected
        raise PlanError(
            f"join plan does not cover the query's relations "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )


def plan_avoids_cartesian_products(plan: JoinPlan, neighbors: dict[str, frozenset[str]]) -> bool:
    """True when every join node connects two sides that share a join edge."""
    for node in plan.join_nodes():
        left_aliases = node.left.aliases
        right_aliases = node.right.aliases
        connected = any(
            bool(neighbors.get(a, frozenset()) & right_aliases) for a in left_aliases
        )
        if not connected:
            return False
    return True
