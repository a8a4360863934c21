"""Join graph construction and attribute equivalence classes.

Section 3.1 of the paper reasons about queries as *natural joins*: join
predicates such as ``R.a = S.b`` are treated as the two columns being the
same attribute.  This module performs that translation:

* every ``alias.column`` that participates in a join condition is placed in
  an *attribute equivalence class* (union-find over the join conditions);
* each relation occurrence is then viewed as a hyperedge over the attribute
  classes it contains;
* the **join graph** has one vertex per relation and an undirected edge
  between two relations whenever they share at least one attribute class,
  weighted by the number of shared classes (Lemma 3.2's weights).

The join graph is the input to GYO ear removal (acyclicity tests),
``LargestRoot``, ``Small2Large`` and ``SafeSubjoin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import PlanError
from repro.query import QuerySpec


@dataclass(frozen=True)
class AttributeClass:
    """One equivalence class of join columns (a "natural join attribute").

    Attributes
    ----------
    name:
        Stable, human-readable identifier (derived from the smallest member).
    members:
        The set of ``(alias, column)`` pairs equated by the join conditions.
    """

    name: str
    members: FrozenSet[Tuple[str, str]]
    #: alias -> its (lexicographically smallest) column in this class.
    _columns: Dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns: Dict[str, str] = {}
        for alias, column in self.members:
            if alias not in columns or column < columns[alias]:
                columns[alias] = column
        object.__setattr__(self, "_columns", columns)

    def column_of(self, alias: str) -> str:
        """Return the column of ``alias`` belonging to this class.

        If a relation contributes several columns to the same class (rare,
        implies a self-equality), the lexicographically smallest is returned.
        """
        try:
            return self._columns[alias]
        except KeyError:
            raise PlanError(
                f"relation {alias!r} has no column in attribute class {self.name!r}"
            ) from None

    def touches(self, alias: str) -> bool:
        """True when the class contains a column of ``alias``."""
        return alias in self._columns

    def relations(self) -> Tuple[str, ...]:
        """The aliases with a column in this class."""
        return tuple(self._columns)


class _UnionFind:
    """Minimal union-find over hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def add(self, item: Tuple[str, str]) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: Tuple[str, str]) -> Tuple[str, str]:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Tuple[str, str], b: Tuple[str, str]) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def groups(self) -> list[frozenset[Tuple[str, str]]]:
        by_root: Dict[Tuple[str, str], set[Tuple[str, str]]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return [frozenset(g) for g in by_root.values()]


@dataclass(frozen=True)
class JoinGraphEdge:
    """An undirected, weighted edge of the join graph."""

    left: str
    right: str
    attributes: Tuple[str, ...]

    @property
    def weight(self) -> int:
        """Number of shared attribute classes (Lemma 3.2 weight)."""
        return len(self.attributes)

    def aliases(self) -> frozenset[str]:
        """The two endpoints as a set."""
        return frozenset({self.left, self.right})

    def other(self, alias: str) -> str:
        """The endpoint that is not ``alias``."""
        if alias == self.left:
            return self.right
        if alias == self.right:
            return self.left
        raise PlanError(f"alias {alias!r} is not an endpoint of edge {self}")

    def __repr__(self) -> str:
        return f"{self.left} -[{','.join(self.attributes)}]- {self.right}"


@dataclass
class JoinGraph:
    """The weighted join graph of a query.

    Attributes
    ----------
    query:
        The query this graph was derived from.
    attribute_classes:
        All natural-join attribute classes, keyed by name.
    relation_attributes:
        For each relation alias, the set of attribute-class names it contains.
    edges:
        Undirected weighted edges between relations sharing attributes.
    relation_sizes:
        Cardinality of each relation (row count of the underlying base table,
        or of the filtered base table when filtered sizes are supplied);
        drives the "largest relation" choices of LargestRoot / Small2Large.

    ``query``, ``attribute_classes`` and ``edges`` are read once, at
    construction, into lookup tables and an integer bit index
    (``sorted_aliases``, ``adjacency_masks``, ``class_masks``); build a new
    graph (as :meth:`subgraph` does) instead of reassigning them.
    """

    query: QuerySpec
    attribute_classes: Dict[str, AttributeClass]
    relation_attributes: Dict[str, FrozenSet[str]]
    edges: Tuple[JoinGraphEdge, ...]
    relation_sizes: Dict[str, int] = field(default_factory=dict)
    #: The bit index, built once from the fields above: bit ``i`` of a
    #: relation mask stands for ``sorted_aliases[i]``, so the ascending bits
    #: of a mask are its aliases in sorted order.
    sorted_aliases: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Per bit, the mask of the relations adjacent to it.
    adjacency_masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Per attribute class (in ``attribute_classes`` order), the mask of the
    #: relations with a column in it.
    class_masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sorted_aliases = tuple(sorted(self.query.aliases))
        self._bit_of = {alias: 1 << i for i, alias in enumerate(self.sorted_aliases)}
        self._edge_between = {edge.aliases(): edge for edge in self.edges}
        incident: Dict[str, list[JoinGraphEdge]] = {alias: [] for alias in self.sorted_aliases}
        for edge in self.edges:
            incident[edge.left].append(edge)
            incident[edge.right].append(edge)
        self._neighbors = {
            alias: frozenset(e.other(alias) for e in found)
            for alias, found in incident.items()
        }
        self.adjacency_masks = tuple(
            self.mask_of(self._neighbors[alias]) for alias in self.sorted_aliases
        )
        self.class_masks = tuple(
            self.mask_of(ac.relations()) for ac in self.attribute_classes.values()
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_query(
        cls,
        query: QuerySpec,
        relation_sizes: Optional[Mapping[str, int]] = None,
    ) -> "JoinGraph":
        """Build the join graph of ``query``.

        Parameters
        ----------
        query:
            The query specification.
        relation_sizes:
            Optional mapping alias -> cardinality.  Missing aliases default
            to size 0; callers that care about LargestRoot / Small2Large
            behaviour should always provide sizes.
        """
        uf = _UnionFind()
        for join in query.joins:
            uf.union((join.left_alias, join.left_column), (join.right_alias, join.right_column))

        classes: Dict[str, AttributeClass] = {}
        for group in uf.groups():
            name = _class_name(group)
            classes[name] = AttributeClass(name=name, members=group)

        relation_attributes: Dict[str, FrozenSet[str]] = {}
        for ref in query.relations:
            attrs = frozenset(
                name for name, ac in classes.items() if ac.touches(ref.alias)
            )
            relation_attributes[ref.alias] = attrs

        edges = _build_edges(query, relation_attributes)
        sizes = {alias: int((relation_sizes or {}).get(alias, 0)) for alias in query.aliases}
        return cls(
            query=query,
            attribute_classes=classes,
            relation_attributes=relation_attributes,
            edges=edges,
            relation_sizes=sizes,
        )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> Tuple[str, ...]:
        """All relation aliases of the underlying query."""
        return self.query.aliases

    def size(self, alias: str) -> int:
        """Cardinality recorded for ``alias`` (0 when unknown)."""
        return self.relation_sizes.get(alias, 0)

    def attributes_of(self, alias: str) -> FrozenSet[str]:
        """Attribute-class names present in ``alias``."""
        return self.relation_attributes[alias]

    def shared_attributes(self, left: str, right: str) -> Tuple[str, ...]:
        """Attribute classes shared between two relations (sorted for determinism)."""
        return tuple(sorted(self.relation_attributes[left] & self.relation_attributes[right]))

    def edge_between(self, left: str, right: str) -> Optional[JoinGraphEdge]:
        """The edge connecting two relations, or None when they do not join."""
        return self._edge_between.get(frozenset({left, right}))

    def neighbors(self, alias: str) -> frozenset[str]:
        """Relations directly connected to ``alias``."""
        return self._neighbors.get(alias, frozenset())

    # ------------------------------------------------------------------
    # Bit index
    # ------------------------------------------------------------------
    def mask_of(self, aliases: Iterable[str]) -> int:
        """The relation mask of a collection of aliases."""
        mask = 0
        try:
            for alias in aliases:
                mask |= self._bit_of[alias]
        except KeyError as exc:
            raise PlanError(f"unknown relation alias {exc.args[0]!r}") from None
        return mask

    def aliases_of(self, mask: int) -> Tuple[str, ...]:
        """The aliases of a relation mask, in sorted order."""
        return tuple(a for i, a in enumerate(self.sorted_aliases) if mask >> i & 1)

    def component_of(self, mask: int) -> int:
        """Flood-fill: the mask of every relation reachable from ``mask``."""
        seen = frontier = mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = self.adjacency_masks[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        return seen

    def largest_relation(self) -> str:
        """The alias with the largest recorded cardinality.

        Ties break toward the lexicographically smallest alias so the result
        is deterministic.
        """
        if not self.aliases:
            raise PlanError("join graph has no relations")
        return max(sorted(self.aliases), key=lambda a: self.size(a))

    def is_connected(self) -> bool:
        """True when the graph is a single connected component."""
        full = (1 << len(self.sorted_aliases)) - 1
        # Flood from the first relation (from nothing when there is none).
        return self.component_of(full & 1) == full

    def connected_components(self) -> Tuple[frozenset[str], ...]:
        """All connected components of the graph (a join forest has several)."""
        remaining = (1 << len(self.sorted_aliases)) - 1
        components: list[frozenset[str]] = []
        while remaining:
            component = self.component_of(remaining & -remaining)
            components.append(frozenset(self.aliases_of(component)))
            remaining &= ~component
        return tuple(components)

    def hyperedges(self) -> Dict[str, FrozenSet[str]]:
        """The hypergraph view: relation alias -> set of attribute classes.

        This is the input representation used by GYO ear removal.
        """
        return dict(self.relation_attributes)

    def subgraph(self, aliases: Iterable[str]) -> "JoinGraph":
        """The induced sub-join-graph over a subset of relations.

        The subgraph keeps the *parent graph's attribute classes* (restricted
        to the requested relations) instead of recomputing them from the
        subquery's explicit join conditions.  This matches the paper's
        natural-join view: two relations equated through a third relation's
        attribute still share that attribute even when the third relation is
        not part of the subjoin.  SafeSubjoin relies on this behaviour.
        """
        alias_set = set(aliases)
        unknown = alias_set - set(self.aliases)
        if unknown:
            raise PlanError(f"unknown aliases in subgraph request: {sorted(unknown)}")
        sub_relations = tuple(r for r in self.query.relations if r.alias in alias_set)
        sub_joins = tuple(
            j for j in self.query.joins
            if j.left_alias in alias_set and j.right_alias in alias_set
        )
        sub_query = QuerySpec(
            name=f"{self.query.name}__sub",
            relations=sub_relations,
            joins=sub_joins,
            aggregates=self.query.aggregates,
        )
        sub_classes = {
            name: AttributeClass(
                name=name,
                members=frozenset((a, c) for a, c in ac.members if a in alias_set),
            )
            for name, ac in self.attribute_classes.items()
            if any(a in alias_set for a, _ in ac.members)
        }
        sub_relation_attributes = {
            alias: frozenset(a for a in self.relation_attributes[alias] if a in sub_classes)
            for alias in alias_set
        }
        sub_edges = _build_edges(sub_query, sub_relation_attributes)
        sub_sizes = {a: self.size(a) for a in alias_set}
        return JoinGraph(
            query=sub_query,
            attribute_classes=sub_classes,
            relation_attributes=sub_relation_attributes,
            edges=sub_edges,
            relation_sizes=sub_sizes,
        )

    def total_mst_weight_upper_bound(self) -> int:
        """Sum over attribute classes of (number of relations containing it - 1).

        For an acyclic query this equals the weight of any maximum spanning
        tree (see the discussion under Lemma 3.2), which gives a cheap check
        for whether a candidate spanning tree is an MST.
        """
        total = 0
        for ac in self.attribute_classes.values():
            total += max(len(ac.relations()) - 1, 0)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinGraph({self.query.name!r}, relations={len(self.aliases)}, "
            f"edges={len(self.edges)})"
        )


def _class_name(group: frozenset[Tuple[str, str]]) -> str:
    """Derive a deterministic attribute-class name from its members."""
    alias, column = sorted(group)[0]
    return f"{alias}.{column}"


def _build_edges(
    query: QuerySpec,
    relation_attributes: Mapping[str, FrozenSet[str]],
) -> Tuple[JoinGraphEdge, ...]:
    """Create one weighted edge per pair of relations sharing attributes."""
    edges: list[JoinGraphEdge] = []
    aliases = list(query.aliases)
    for i, left in enumerate(aliases):
        for right in aliases[i + 1:]:
            shared = tuple(sorted(relation_attributes[left] & relation_attributes[right]))
            if shared:
                edges.append(JoinGraphEdge(left=left, right=right, attributes=shared))
    return tuple(edges)
