"""The LargestRoot algorithm (Algorithm 1 of the paper).

LargestRoot builds a *maximum spanning tree* of the weighted join graph with
Prim's algorithm, seeded with the largest relation so that the largest
relation becomes the root of the resulting join tree.  By Lemma 3.2 the MST
of an acyclic query's join graph is a join tree, so the transfer schedule
derived from it performs a **full semi-join reduction** — the property the
original Predicate Transfer's Small2Large heuristic lacks.

Line 3 breaks ties the paper's way:

* when several frontier edges have maximal weight, the edge whose outside
  vertex ``R`` is largest is chosen ("pushes larger relations toward the
  root", minimizing Bloom-filter construction cost);
* the choice of inside vertex ``S`` is unconstrained by the paper; the
  smaller inside relation wins, then alias order.

For the Figure 13 experiment the paper replaces Line 3 with a *random* edge
choice while keeping the largest relation at the root;
:func:`largest_root_random` reproduces that variant.  Both, and SafeSubjoin's
restart from a seeded subtree (Algorithm 2), run the one growth loop
:func:`grow_tree` with a different Line 3.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.join_graph import JoinGraph, JoinGraphEdge
from repro.core.join_tree import JoinTree, TreeEdge
from repro.errors import PlanError

#: A frontier entry: an edge with exactly one endpoint in the tree, and that
#: edge's outside relation.
FrontierEdge = Tuple[JoinGraphEdge, str]
#: Line 3 of Algorithm 1: choose the frontier entry to attach next.
Pick = Callable[[JoinGraph, List[FrontierEdge]], FrontierEdge]


def largest_root(graph: JoinGraph, root: Optional[str] = None) -> JoinTree:
    """Run Algorithm 1 (LargestRoot) on a join graph.

    Parameters
    ----------
    graph:
        The weighted join graph (must be connected).
    root:
        Override the root.  The paper always uses the largest relation; the
        override exists so tests can explore other roots.

    Returns
    -------
    JoinTree
        A maximum spanning tree rooted at the largest relation.  For an
        α-acyclic query this is a join tree (full-reduction guarantee); for a
        cyclic query it is still a spanning tree and the schedule derived
        from it transfers every predicate at least once.

    Raises
    ------
    PlanError
        If the join graph is empty or disconnected, or ``root`` is not one
        of its relations.
    """
    return grow_tree(graph, _validated_root(graph, root), paper_pick)


def largest_root_random(
    graph: JoinGraph,
    rng: random.Random,
    root: Optional[str] = None,
) -> JoinTree:
    """The randomized LargestRoot variant used in the Figure 13 experiment.

    Line 3 of Algorithm 1 is replaced by "find *an* edge {R, S} with R
    outside and S inside the tree" chosen uniformly at random among **all**
    frontier edges, while the largest relation stays at the root.  For
    acyclic queries whose edges all have weight 1 (the common case) every
    such tree is still a join tree; with composite-key edges the random
    variant may not be an MST — exactly the degradation the experiment
    studies.  Raises :class:`PlanError` as :func:`largest_root` does.
    """
    return grow_tree(
        graph,
        _validated_root(graph, root),
        lambda _graph, frontier: frontier[rng.randrange(len(frontier))],
    )


def grow_tree(
    graph: JoinGraph,
    root: str,
    pick: Pick,
    seed: Sequence[TreeEdge] = (),
) -> JoinTree:
    """Algorithm 1's loop: attach the frontier edge ``pick`` chooses until
    the tree rooted at ``root`` spans ``graph``.

    ``seed`` — the edges of a tree rooted at ``root`` over some of the
    relations — is Algorithm 2's modified initialization (``T <- T'``,
    ``R' <- relations of q'``); the relations added later point toward it.
    """
    parents = {edge.child: edge.parent for edge in seed}
    in_tree = {root, *parents}
    total = len(graph.sorted_aliases)
    while len(in_tree) < total:
        frontier = _frontier_edges(graph, in_tree)
        if not frontier:
            raise PlanError("join graph became disconnected during LargestRoot")
        edge, outside = pick(graph, frontier)
        parents[outside] = edge.other(outside)
        in_tree.add(outside)
    edges = tuple(
        TreeEdge(child=child, parent=parent, attributes=graph.shared_attributes(child, parent))
        for child, parent in parents.items()
    )
    return JoinTree(root=root, edges=edges, graph=graph)


def paper_pick(graph: JoinGraph, frontier: List[FrontierEdge]) -> FrontierEdge:
    """Line 3 of Algorithm 1: maximal weight, tie-break on largest outside relation."""

    def sort_key(item: FrontierEdge) -> Tuple:
        edge, outside = item
        inside = edge.other(outside)
        # Larger weight first, then larger outside relation (the paper's Line 3
        # tie-break), then the smaller inside relation (unspecified by the
        # paper; attaching to the smaller relation yields the deeper tree shown
        # in Figure 1b, filtering irrelevant tuples earlier), then alias order.
        return (-edge.weight, -graph.size(outside), graph.size(inside), outside, inside)

    return min(frontier, key=sort_key)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------
def _validated_root(graph: JoinGraph, root: Optional[str]) -> str:
    """The root to grow from: ``root``, else the largest relation."""
    if not graph.aliases:
        raise PlanError("cannot run LargestRoot on an empty join graph")
    if not graph.is_connected():
        raise PlanError(
            "LargestRoot requires a connected join graph; "
            "split the query into components and build a join forest instead"
        )
    start = root if root is not None else graph.largest_relation()
    if start not in graph.aliases:
        raise PlanError(f"root {start!r} is not a relation of the join graph")
    return start


def _frontier_edges(graph: JoinGraph, in_tree: set[str]) -> List[FrontierEdge]:
    """All edges with exactly one endpoint inside the tree, with the outside vertex."""
    result: List[FrontierEdge] = []
    for edge in graph.edges:
        endpoints = edge.aliases()
        inside = endpoints & in_tree
        outside = endpoints - in_tree
        if len(inside) == 1 and len(outside) == 1:
            result.append((edge, next(iter(outside))))
    # Deterministic base order so random sampling is reproducible per seed.
    result.sort(key=lambda item: (item[0].left, item[0].right))
    return result
