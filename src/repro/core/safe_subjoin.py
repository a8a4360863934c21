"""The SafeSubjoin algorithm (Algorithm 2 of the paper) and safe-order checking.

A *subjoin* of an acyclic query is **safe** (Definition 3.3) when its result
on any fully reduced instance is a projection of the final output, so its
size is bounded by the output size.  Lemma 3.7 characterizes safety
structurally: a subjoin is safe iff its relations are connected in *some*
join tree of the full query.

``SafeSubjoin`` tests this by (1) building a maximum spanning tree ``T'`` of
the subjoin's join graph with LargestRoot, (2) extending ``T'`` to a spanning
tree ``T`` of the full query by continuing LargestRoot with the subjoin's
relations pre-seeded, and (3) checking whether ``T`` is a maximum spanning
tree of the full join graph (equivalently, a join tree — Lemma 3.2).

On top of the per-subjoin test, :func:`is_safe_join_order` validates a whole
left-deep or bushy join order by checking every prefix/subtree it
materializes, and γ-acyclic queries short-circuit to "all Cartesian-free
orders are safe" (Theorem 3.6).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.join_graph import JoinGraph
from repro.core.join_tree import is_gamma_acyclic, maximum_spanning_tree_weight
from repro.core.largest_root import grow_tree, paper_pick
from repro.errors import PlanError


def safe_subjoin(graph: JoinGraph, subjoin_aliases: Iterable[str]) -> bool:
    """Algorithm 2: is the subjoin over ``subjoin_aliases`` safe?

    Parameters
    ----------
    graph:
        Join graph of the full (acyclic) query.
    subjoin_aliases:
        The relations of the candidate subjoin.  Must be non-empty, a subset
        of the query's relations, and connected in the join graph (a subjoin
        containing a Cartesian product is never safe and is rejected with
        ``False`` immediately).

    Returns
    -------
    bool
        True iff the subjoin is safe (Lemma 3.7 / Algorithm 2).
    """
    aliases = list(dict.fromkeys(subjoin_aliases))
    if not aliases:
        raise PlanError("a subjoin must contain at least one relation")
    unknown = set(aliases) - set(graph.aliases)
    if unknown:
        raise PlanError(f"subjoin references unknown relations: {sorted(unknown)}")
    if len(aliases) <= 1:
        return True
    if set(aliases) == set(graph.aliases):
        # The full query: safe by definition (its output is the output).
        return True

    subgraph = graph.subgraph(aliases)
    if not subgraph.is_connected():
        # Involves a Cartesian product — never safe.
        return False

    # Step 1: T' <- LargestRoot(G_q')
    root = subgraph.largest_relation()
    sub_tree = grow_tree(subgraph, root, paper_pick)

    # Step 2: continue LargestRoot on the full graph with T' pre-seeded.
    full_tree = grow_tree(graph, root, paper_pick, seed=sub_tree.edges)

    # Step 3: T is a join tree of q iff it is a maximum spanning tree of G_q.
    return full_tree.total_weight == maximum_spanning_tree_weight(graph)


def is_safe_join_order(
    graph: JoinGraph,
    join_order: Sequence[str],
    assume_gamma_acyclic: Optional[bool] = None,
) -> bool:
    """Check that every prefix of a left-deep join order is a safe subjoin.

    For a γ-acyclic query every Cartesian-product-free order is safe
    (Theorem 3.6); the check therefore only verifies connectivity of each
    prefix.  Otherwise each prefix of size ≥ 2 (and < full) is tested with
    :func:`safe_subjoin`.

    Parameters
    ----------
    graph:
        Join graph of the full acyclic query.
    join_order:
        Left-deep order of relation aliases.
    assume_gamma_acyclic:
        Skip (or force) the γ-acyclicity test, mainly for testing.
    """
    order = list(join_order)
    if set(order) != set(graph.aliases) or len(order) != len(graph.aliases):
        raise PlanError("join order must be a permutation of the query's relations")
    gamma = is_gamma_acyclic(graph) if assume_gamma_acyclic is None else assume_gamma_acyclic

    joined: set[str] = set()
    for alias in order:
        if joined and not (graph.neighbors(alias) & joined):
            # Cartesian product — unsafe regardless of acyclicity class.
            return False
        joined.add(alias)
        if gamma:
            continue
        if 2 <= len(joined) < len(graph.aliases):
            if not safe_subjoin(graph, joined):
                return False
    return True


def unsafe_prefixes(graph: JoinGraph, join_order: Sequence[str]) -> list[frozenset[str]]:
    """Return the unsafe prefixes of a left-deep join order (empty list = safe).

    Useful for diagnostics: the paper's TPC-DS Q29 discussion identifies
    specific unsafe subjoins of an acyclic-but-not-γ-acyclic query.
    """
    order = list(join_order)
    joined: set[str] = set()
    offenders: list[frozenset[str]] = []
    for alias in order:
        if joined and not (graph.neighbors(alias) & joined):
            offenders.append(frozenset(joined | {alias}))
            joined.add(alias)
            continue
        joined.add(alias)
        if 2 <= len(joined) < len(graph.aliases) and not safe_subjoin(graph, joined):
            offenders.append(frozenset(joined))
    return offenders
