"""Random join-order generation (the probes of the robustness experiments).

Section 5.1 of the paper generates, for every query, ``N`` random left-deep
plans and ``N`` random bushy plans where ``N`` scales with the number of
joins (``N = 70·m − 190`` for ``3 ≤ m ≤ 17``, clamped to [20, 1000]).  Both
generators avoid Cartesian products:

* **left-deep**: start from a random base table and repeatedly append a
  random base table that is joinable (shares a join-graph edge) with the
  relations joined so far;
* **bushy**: repeatedly pick two random *joinable* entries from the
  candidate set (initially all base tables), join them, and put the
  intermediate back until one plan remains.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.core.join_graph import JoinGraph
from repro.errors import OptimizerError
from repro.plan.join_plan import JoinNode, JoinPlan, LeafNode, PlanNode


def paper_sample_size(num_joins: int, minimum: int = 20, maximum: int = 1000) -> int:
    """The paper's sample-size rule ``N = 70·m − 190`` clamped to [minimum, maximum]."""
    return int(min(max(70 * num_joins - 190, minimum), maximum))


def random_left_deep_order(graph: JoinGraph, rng: random.Random) -> tuple[str, ...]:
    """One random Cartesian-product-free left-deep join order."""
    aliases = list(graph.aliases)
    if not aliases:
        raise OptimizerError("cannot generate a plan for a query with no relations")
    if len(aliases) == 1:
        return (aliases[0],)
    if not graph.is_connected():
        raise OptimizerError("random plan generation requires a connected join graph")
    order: List[str] = [rng.choice(sorted(aliases))]
    joined = set(order)
    while len(order) < len(aliases):
        candidates = sorted(
            alias
            for alias in aliases
            if alias not in joined and graph.neighbors(alias) & joined
        )
        if not candidates:
            raise OptimizerError("join graph became disconnected during plan generation")
        choice = rng.choice(candidates)
        order.append(choice)
        joined.add(choice)
    return tuple(order)


def random_left_deep_plan(graph: JoinGraph, rng: random.Random) -> JoinPlan:
    """One random left-deep :class:`JoinPlan`."""
    return JoinPlan.from_left_deep(random_left_deep_order(graph, rng))


def random_bushy_plan(graph: JoinGraph, rng: random.Random) -> JoinPlan:
    """One random Cartesian-product-free bushy :class:`JoinPlan`.

    Follows the paper's procedure: keep a candidate set of plan fragments
    (initially every base table); repeatedly remove two joinable fragments,
    join them, and insert the intermediate back.
    """
    aliases = list(graph.aliases)
    if not aliases:
        raise OptimizerError("cannot generate a plan for a query with no relations")
    if len(aliases) == 1:
        return JoinPlan.single(aliases[0])
    if not graph.is_connected():
        raise OptimizerError("random plan generation requires a connected join graph")

    fragments: List[PlanNode] = [LeafNode(a) for a in sorted(aliases)]
    while len(fragments) > 1:
        joinable_pairs = [
            (i, j)
            for i in range(len(fragments))
            for j in range(i + 1, len(fragments))
            if _fragments_joinable(graph, fragments[i], fragments[j])
        ]
        if not joinable_pairs:
            raise OptimizerError("no joinable fragments remain; join graph is disconnected")
        i, j = joinable_pairs[rng.randrange(len(joinable_pairs))]
        right = fragments.pop(j)
        left = fragments.pop(i)
        # Randomize which side becomes the build side, as a random bushy plan would.
        if rng.random() < 0.5:
            left, right = right, left
        fragments.append(JoinNode(left=left, right=right))
    return JoinPlan(root=fragments[0])


def generate_left_deep_plans(
    graph: JoinGraph,
    count: int,
    seed: int = 0,
    unique: bool = False,
) -> List[JoinPlan]:
    """Generate ``count`` random left-deep plans (optionally de-duplicated)."""
    rng = random.Random(seed)
    plans: List[JoinPlan] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(plans) < count and attempts < count * 20:
        attempts += 1
        order = random_left_deep_order(graph, rng)
        if unique:
            if order in seen:
                continue
            seen.add(order)
        plans.append(JoinPlan.from_left_deep(order))
    return plans


def generate_bushy_plans(graph: JoinGraph, count: int, seed: int = 0) -> List[JoinPlan]:
    """Generate ``count`` random bushy plans."""
    rng = random.Random(seed)
    return [random_bushy_plan(graph, rng) for _ in range(count)]


def iter_all_left_deep_orders(graph: JoinGraph) -> Iterator[tuple[str, ...]]:
    """Exhaustively enumerate every Cartesian-product-free left-deep order.

    Exponential; intended for small queries in tests and case studies.
    """
    aliases = list(graph.aliases)
    if len(aliases) == 1:
        yield (aliases[0],)
        return

    def extend(order: List[str], joined: set[str]) -> Iterator[tuple[str, ...]]:
        if len(order) == len(aliases):
            yield tuple(order)
            return
        for alias in sorted(aliases):
            if alias in joined:
                continue
            if joined and not (graph.neighbors(alias) & joined):
                continue
            yield from extend(order + [alias], joined | {alias})

    for start in sorted(aliases):
        yield from extend([start], {start})


def _fragments_joinable(graph: JoinGraph, left: PlanNode, right: PlanNode) -> bool:
    return any(graph.neighbors(a) & right.aliases for a in left.aliases)
