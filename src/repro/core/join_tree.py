"""Join trees, GYO ear removal, and acyclicity tests (α- and γ-acyclicity).

A *join tree* of a natural-join query is a spanning tree of its join graph
such that for every attribute class the relations containing that attribute
induce a connected subtree (the "connectedness" / running-intersection
property).  Acyclicity is defined through join trees:

* **α-acyclic** (Definition 3.1): a join tree exists.  Tested here with the
  classic GYO ear-removal algorithm on the query's hypergraph.
* **γ-acyclic** (Definition 3.4): α-acyclic and free of γ-cycles; the paper
  uses the practical sufficient condition "no two relations are connected by
  more than one attribute" plus the size-3 γ-cycle pattern, both implemented
  below.

Lemma 3.2 states that for an acyclic query, a spanning tree is a join tree
iff it is a *maximum* spanning tree under the shared-attribute-count weights;
:func:`is_join_tree` and :func:`is_maximum_spanning_tree` implement both
sides of that equivalence so the library (and its tests) can cross-check the
two characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import AcyclicityError, PlanError
from repro.core.join_graph import JoinGraph


@dataclass(frozen=True)
class TreeEdge:
    """A directed edge of a rooted join tree, pointing child -> parent.

    Following Algorithm 1, edges are directed "from R to S" where S is
    already in the tree, i.e. from the newly added (child) vertex toward the
    root.  The edge direction is exactly the direction Bloom filters flow in
    the forward pass.
    """

    child: str
    parent: str
    attributes: Tuple[str, ...]

    @property
    def weight(self) -> int:
        """Number of shared attribute classes."""
        return len(self.attributes)

    def __repr__(self) -> str:
        return f"{self.child} -> {self.parent} [{','.join(self.attributes)}]"


@dataclass
class JoinTree:
    """A rooted spanning tree of a join graph.

    The tree is represented by its root and child->parent edges.  Traversal
    helpers provide the orders needed by the transfer schedule (post-order
    for the forward pass, level-order for the backward pass) and the join
    phase (bottom-up join order).
    """

    root: str
    edges: Tuple[TreeEdge, ...]
    graph: JoinGraph = field(repr=False)

    def __post_init__(self) -> None:
        nodes = {self.root} | {e.child for e in self.edges} | {e.parent for e in self.edges}
        if len(self.edges) != len(nodes) - 1:
            raise PlanError(
                f"join tree has {len(self.edges)} edges for {len(nodes)} nodes; not a tree"
            )
        children = [e.child for e in self.edges]
        if len(set(children)) != len(children):
            raise PlanError("join tree has a node with two parents")
        if self.root in children:
            raise PlanError("join tree root must not have a parent")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[str]:
        """All relation aliases in the tree."""
        return frozenset({self.root} | {e.child for e in self.edges} | {e.parent for e in self.edges})

    @property
    def total_weight(self) -> int:
        """Sum of edge weights (shared-attribute counts)."""
        return sum(e.weight for e in self.edges)

    def parent_of(self, alias: str) -> Optional[str]:
        """Parent of ``alias`` (None for the root)."""
        for edge in self.edges:
            if edge.child == alias:
                return edge.parent
        if alias == self.root:
            return None
        raise PlanError(f"alias {alias!r} is not a node of this join tree")

    def children_of(self, alias: str) -> Tuple[str, ...]:
        """Children of ``alias`` in deterministic (sorted) order."""
        return tuple(sorted(e.child for e in self.edges if e.parent == alias))

    def edge_to_parent(self, alias: str) -> TreeEdge:
        """The edge connecting ``alias`` to its parent."""
        for edge in self.edges:
            if edge.child == alias:
                return edge
        raise PlanError(f"alias {alias!r} has no parent edge (is it the root?)")

    def depth_of(self, alias: str) -> int:
        """Distance from ``alias`` to the root."""
        depth = 0
        current: Optional[str] = alias
        while current != self.root:
            current = self.parent_of(current)
            if current is None:
                raise PlanError(f"alias {alias!r} is disconnected from root {self.root!r}")
            depth += 1
        return depth

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth_of(n) for n in self.nodes)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def post_order(self) -> Tuple[str, ...]:
        """Children-before-parents order (used by the forward pass)."""
        order: List[str] = []

        def visit(node: str) -> None:
            for child in self.children_of(node):
                visit(child)
            order.append(node)

        visit(self.root)
        return tuple(order)

    def level_order(self) -> Tuple[str, ...]:
        """Root-first breadth-first order (used by the backward pass)."""
        order: List[str] = [self.root]
        frontier: List[str] = [self.root]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for child in self.children_of(node):
                    order.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        return tuple(order)

    def leaves(self) -> Tuple[str, ...]:
        """Nodes with no children."""
        return tuple(sorted(n for n in self.nodes if not self.children_of(n)))

    def bottom_up_join_order(self) -> Tuple[str, ...]:
        """A left-deep join order that climbs the tree from a leaf (Yannakakis join phase).

        The first element is a leaf; every subsequent relation is adjacent
        *in the tree* to the set already joined (a depth-first walk of the
        tree viewed as an undirected graph), so every binary join maps to a
        tree edge and intermediate results stay monotone on a fully reduced
        instance.
        """
        start = self.leaves()[0] if self.leaves() else self.root
        order: List[str] = []
        seen: set[str] = set()

        def visit(node: str) -> None:
            if node in seen:
                return
            seen.add(node)
            order.append(node)
            neighbors = list(self.children_of(node))
            parent = self.parent_of(node)
            if parent is not None:
                neighbors.append(parent)
            for neighbor in neighbors:
                visit(neighbor)

        visit(start)
        return tuple(order)

    def aligned_join_order(self) -> Tuple[str, ...]:
        """The top-down (root-first) join order that is *aligned* with the transfer order.

        When the join phase consumes relations in this order, every relation
        is joined immediately after its parent, so the filtering the backward
        pass would have performed happens inside the joins themselves and the
        backward pass can be skipped (§4.3 of the paper).
        """
        return self.level_order()

    def subtree_nodes(self, alias: str) -> FrozenSet[str]:
        """All nodes in the subtree rooted at ``alias`` (including itself)."""
        result = {alias}
        frontier = [alias]
        while frontier:
            node = frontier.pop()
            for child in self.children_of(node):
                result.add(child)
                frontier.append(child)
        return frozenset(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinTree(root={self.root!r}, edges={len(self.edges)})"


# ---------------------------------------------------------------------------
# GYO ear removal and acyclicity
# ---------------------------------------------------------------------------
def gyo_reduction(graph: JoinGraph) -> Tuple[Dict[str, FrozenSet[str]], List[Tuple[str, Optional[str]]]]:
    """Run GYO ear removal on the query hypergraph.

    Repeatedly removes *ears*: a relation R is an ear if its attributes that
    are shared with any other relation are all contained in a single other
    relation S (the *witness*), or if R shares no attribute with anyone.

    Returns
    -------
    (remaining, removal_sequence):
        ``remaining`` maps the aliases that could not be removed to their
        attribute sets (empty iff the query is α-acyclic); the removal
        sequence records ``(ear, witness)`` pairs in removal order, which is
        exactly a join-tree parent assignment for acyclic queries.
    """
    hyperedges: Dict[str, FrozenSet[str]] = dict(graph.hyperedges())
    removal_sequence: List[Tuple[str, Optional[str]]] = []

    changed = True
    while changed and len(hyperedges) > 1:
        changed = False
        for alias in sorted(hyperedges):
            attrs = hyperedges[alias]
            others = {a: s for a, s in hyperedges.items() if a != alias}
            shared_with_others = frozenset(
                attr for attr in attrs if any(attr in s for s in others.values())
            )
            if not shared_with_others:
                removal_sequence.append((alias, None))
                del hyperedges[alias]
                changed = True
                break
            witness = None
            for other_alias in sorted(others, key=lambda a: (-len(others[a] & shared_with_others), a)):
                if shared_with_others <= others[other_alias]:
                    witness = other_alias
                    break
            if witness is not None:
                removal_sequence.append((alias, witness))
                del hyperedges[alias]
                changed = True
                break
    return hyperedges, removal_sequence


def is_alpha_acyclic(graph: JoinGraph) -> bool:
    """True when the query is α-acyclic (a join tree exists)."""
    if len(graph.aliases) <= 1:
        return True
    remaining, _ = gyo_reduction(graph)
    return len(remaining) <= 1


def is_gamma_acyclic(graph: JoinGraph) -> bool:
    """True when the query is γ-acyclic (Definition 3.4).

    Implemented as: α-acyclic, and no three relations R, S, T with attribute
    classes x, y, z form the γ-cycle-of-size-3 pattern
    ``R ⊇ {x, y}``, ``S ⊇ {y, z}``, ``T ⊇ {x, y, z}`` with R missing z and S
    missing x.  (This matches the definition quoted in the paper; the fully
    general γ-cycle elimination procedure reduces to this pattern after
    α-acyclicity holds for the query shapes evaluated here.)
    """
    if not is_alpha_acyclic(graph):
        return False
    aliases = list(graph.aliases)
    attrs = graph.relation_attributes
    for r in aliases:
        for s in aliases:
            if s == r:
                continue
            for t in aliases:
                if t in (r, s):
                    continue
                # Candidate z: shared by S and T but not in R.
                # Candidate x: shared by R and T but not in S.
                # Candidate y: shared by all three.
                shared_all = attrs[r] & attrs[s] & attrs[t]
                if not shared_all:
                    continue
                x_candidates = (attrs[r] & attrs[t]) - attrs[s]
                z_candidates = (attrs[s] & attrs[t]) - attrs[r]
                if x_candidates and z_candidates:
                    return False
    return True


def has_composite_edges(graph: JoinGraph) -> bool:
    """True when some pair of relations joins on more than one attribute.

    The paper uses "no composite-key joins" as a quick *sufficient* check for
    γ-acyclicity of an α-acyclic query.
    """
    return any(edge.weight > 1 for edge in graph.edges)


# ---------------------------------------------------------------------------
# Join-tree validation (Lemma 3.2, both directions)
# ---------------------------------------------------------------------------
def attribute_subgraph_connected(tree: JoinTree, attribute: str) -> bool:
    """True when the relations containing ``attribute`` induce a connected subtree."""
    graph = tree.graph
    members = {alias for alias in tree.nodes if attribute in graph.attributes_of(alias)}
    if len(members) <= 1:
        return True
    # Walk the induced subgraph of the tree restricted to `members`.
    adjacency: Dict[str, set[str]] = {m: set() for m in members}
    for edge in tree.edges:
        if edge.child in members and edge.parent in members:
            adjacency[edge.child].add(edge.parent)
            adjacency[edge.parent].add(edge.child)
    start = sorted(members)[0]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen == members


def is_join_tree(tree: JoinTree) -> bool:
    """True when ``tree`` satisfies the join-tree connectedness property."""
    if tree.nodes != frozenset(tree.graph.aliases):
        return False
    return all(
        attribute_subgraph_connected(tree, attribute)
        for attribute in tree.graph.attribute_classes
    )


def maximum_spanning_tree_weight(graph: JoinGraph) -> int:
    """Weight of a maximum spanning tree of the join graph (Prim's algorithm)."""
    aliases = list(graph.aliases)
    if len(aliases) <= 1:
        return 0
    if not graph.is_connected():
        raise AcyclicityError("maximum spanning tree weight requires a connected join graph")
    in_tree = {aliases[0]}
    total = 0
    while len(in_tree) < len(aliases):
        best_weight = -1
        best_vertex: Optional[str] = None
        for edge in graph.edges:
            endpoints = edge.aliases()
            inside = endpoints & in_tree
            outside = endpoints - in_tree
            if len(inside) == 1 and len(outside) == 1:
                if edge.weight > best_weight:
                    best_weight = edge.weight
                    best_vertex = next(iter(outside))
        if best_vertex is None:
            raise AcyclicityError("join graph is disconnected; no spanning tree exists")
        in_tree.add(best_vertex)
        total += best_weight
    return total


def is_maximum_spanning_tree(tree: JoinTree) -> bool:
    """True when ``tree`` is a maximum spanning tree of its join graph."""
    if tree.nodes != frozenset(tree.graph.aliases):
        return False
    return tree.total_weight == maximum_spanning_tree_weight(tree.graph)


def join_tree_from_parent_map(
    graph: JoinGraph,
    root: str,
    parents: Dict[str, str],
) -> JoinTree:
    """Assemble a :class:`JoinTree` from a child->parent mapping."""
    edges = []
    for child, parent in parents.items():
        shared = graph.shared_attributes(child, parent)
        edges.append(TreeEdge(child=child, parent=parent, attributes=shared))
    return JoinTree(root=root, edges=tuple(edges), graph=graph)


def join_tree_from_gyo(graph: JoinGraph) -> JoinTree:
    """Build a join tree directly from a GYO removal sequence.

    Useful as an alternative construction to LargestRoot in tests: for an
    acyclic query both must produce valid join trees (though generally
    different ones).

    Raises
    ------
    AcyclicityError
        If the query is not α-acyclic.
    """
    remaining, sequence = gyo_reduction(graph)
    if len(remaining) > 1:
        raise AcyclicityError(f"query {graph.query.name!r} is cyclic; no join tree exists")
    if len(graph.aliases) == 1:
        return JoinTree(root=graph.aliases[0], edges=(), graph=graph)
    root = next(iter(remaining)) if remaining else sequence[-1][0]
    parents: Dict[str, str] = {}
    # An ear's witness (still present at removal time) becomes its parent.
    for ear, witness in sequence:
        if ear == root:
            continue
        if witness is not None:
            parents[ear] = witness
        else:
            # Ear with no shared attributes (disconnected query component):
            # attach to the root so the structure remains a tree.
            parents[ear] = root
    return join_tree_from_parent_map(graph, root, parents)
