"""Query graph data structures and connected-component splitting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cypher import ast


@dataclass
class QueryNode:
    """A pattern node: a variable plus its label constraints."""

    name: str
    labels: frozenset[str] = frozenset()


@dataclass
class QueryRelationship:
    """A pattern relationship between two query nodes.

    ``directed`` is False for ``-[]-`` patterns, in which case ``start``/
    ``end`` record the syntactic order only.
    """

    name: str
    start: str
    end: str
    types: frozenset[str] = frozenset()
    directed: bool = True

    def other(self, node_name: str) -> str:
        if node_name == self.start:
            return self.end
        if node_name == self.end:
            return self.start
        raise ValueError(f"{node_name} is not an endpoint of {self.name}")

    def endpoints(self) -> tuple[str, str]:
        return self.start, self.end


@dataclass
class QueryGraph:
    """The MATCH/WHERE content of one query part (§2.2, Figure 2).

    ``arguments`` are variables bound by the previous part (through a WITH
    boundary); they behave as already-solved symbols during planning.
    """

    nodes: dict[str, QueryNode] = field(default_factory=dict)
    relationships: dict[str, QueryRelationship] = field(default_factory=dict)
    selections: list[ast.Expression] = field(default_factory=list)
    arguments: frozenset[str] = frozenset()

    def add_node(self, name: str, labels: Iterable[str] = ()) -> QueryNode:
        """Add or merge a pattern node (labels accumulate, as in Cypher)."""
        existing = self.nodes.get(name)
        if existing is None:
            node = QueryNode(name=name, labels=frozenset(labels))
            self.nodes[name] = node
            return node
        existing.labels = existing.labels | frozenset(labels)
        return existing

    def add_relationship(
        self,
        name: str,
        start: str,
        end: str,
        types: Iterable[str] = (),
        directed: bool = True,
    ) -> QueryRelationship:
        if name in self.relationships:
            raise ValueError(f"relationship {name!r} already in query graph")
        rel = QueryRelationship(
            name=name,
            start=start,
            end=end,
            types=frozenset(types),
            directed=directed,
        )
        self.relationships[name] = rel
        return rel

    def relationships_of(self, node_name: str) -> list[QueryRelationship]:
        return [
            rel
            for rel in self.relationships.values()
            if node_name in (rel.start, rel.end)
        ]

    def connected_components(self) -> list["QueryGraph"]:
        """Split into connected components (each planned separately, §2.2).

        Argument variables do not connect components — two patterns that only
        share a WITH-bound value are still combined via CartesianProduct /
        Apply, matching the paper's Figure 2 discussion. Selections are
        assigned to the component containing their variables; predicates that
        span components stay on the first component that completes them
        (evaluated after the cartesian product by the executor).
        """
        if not self.nodes:
            return [self]
        parent: dict[str, str] = {name: name for name in self.nodes}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for rel in self.relationships.values():
            union(rel.start, rel.end)
        groups: dict[str, QueryGraph] = {}
        order: list[str] = []
        for name, node in self.nodes.items():
            root = find(name)
            if root not in groups:
                groups[root] = QueryGraph(arguments=self.arguments)
                order.append(root)
            groups[root].nodes[name] = node
        for rel in self.relationships.values():
            groups[find(rel.start)].relationships[rel.name] = rel
        if len(groups) == 1:
            only = groups[order[0]]
            only.selections = list(self.selections)
            return [only]
        # Attach each selection to the first component (in discovery order)
        # that covers all of its non-argument variables. Selections spanning
        # several components stay unattached; the planner applies them after
        # the components are combined.
        component_list = [groups[root] for root in order]
        for selection in self.selections:
            needed = selection.variables() - set(self.arguments)
            for component in component_list:
                if needed <= (set(component.nodes) | set(component.relationships)):
                    component.selections.append(selection)
                    break
        return component_list

    def __str__(self) -> str:
        return (
            f"QueryGraph(nodes={sorted(self.nodes)}, "
            f"rels={sorted(self.relationships)}, "
            f"selections={len(self.selections)})"
        )
