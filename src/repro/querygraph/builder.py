"""AST → query parts: split on projection boundaries, build query graphs.

Each :class:`QueryPart` owns the query graph of the MATCH/WHERE clauses
between two boundaries plus the boundary's projection. Write clauses become
:class:`UpdateAction` lists executed by the runtime after pattern matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cypher import ast
from repro.cypher.semantics import AnalyzedQuery, VariableKind
from repro.errors import CypherSemanticError
from repro.querygraph.graph import QueryGraph


@dataclass
class UpdateAction:
    """One write command derived from CREATE/DELETE clauses."""

    kind: str  # "create_node" | "create_relationship" | "delete"
    variable: Optional[str] = None
    labels: tuple[str, ...] = ()
    properties: dict[str, ast.Expression] = field(default_factory=dict)
    start: Optional[str] = None
    end: Optional[str] = None
    type: Optional[str] = None
    detach: bool = False


@dataclass
class QueryPart:
    """A planning unit: one query graph plus its boundary projection."""

    query_graph: QueryGraph
    projection: list[ast.ProjectionItem]
    projection_where: Optional[ast.Expression] = None
    distinct: bool = False
    order_by: list[tuple[ast.Expression, bool]] = field(default_factory=list)
    skip: Optional[int] = None
    limit: Optional[int] = None
    updates: list[UpdateAction] = field(default_factory=list)
    is_final: bool = False


def build_query_parts(analyzed: AnalyzedQuery) -> list[QueryPart]:
    """Split the analyzed query on WITH/RETURN boundaries (§2.2)."""
    builder = _PartBuilder(analyzed)
    return builder.build()


class _PartBuilder:
    def __init__(self, analyzed: AnalyzedQuery) -> None:
        self.analyzed = analyzed
        self.anonymous_counter = itertools.count()
        self.bound: set[str] = set()

    def build(self) -> list[QueryPart]:
        parts: list[QueryPart] = []
        graph = QueryGraph(arguments=frozenset(self.bound))
        updates: list[UpdateAction] = []
        for clause in self.analyzed.query.clauses:
            if isinstance(clause, ast.MatchClause):
                if updates:
                    raise CypherSemanticError(
                        "MATCH after a write clause requires a WITH boundary"
                    )
                self._add_match(graph, clause)
            elif isinstance(clause, ast.CreateClause):
                updates.extend(self._create_actions(clause, graph))
            elif isinstance(clause, ast.DeleteClause):
                for expression in clause.expressions:
                    assert isinstance(expression, ast.Variable)
                    updates.append(
                        UpdateAction(
                            kind="delete",
                            variable=expression.name,
                            detach=clause.detach,
                        )
                    )
            elif isinstance(clause, (ast.WithClause, ast.ReturnClause)):
                items = self.analyzed.projection_items(clause)
                part = QueryPart(
                    query_graph=graph,
                    projection=items,
                    updates=updates,
                    distinct=getattr(clause, "distinct", False),
                )
                if isinstance(clause, ast.WithClause):
                    part.projection_where = clause.where
                else:
                    part.is_final = True
                    part.order_by = clause.order_by
                    part.skip = clause.skip
                    part.limit = clause.limit
                parts.append(part)
                self.bound = {item.output_name for item in items}
                graph = QueryGraph(arguments=frozenset(self.bound))
                updates = []
        if updates or graph.nodes or graph.relationships:
            # Write query without trailing RETURN: emit a final part that
            # projects nothing.
            parts.append(
                QueryPart(
                    query_graph=graph,
                    projection=[],
                    updates=updates,
                    is_final=True,
                )
            )
        return parts

    # ------------------------------------------------------------------

    def _fresh_name(self, prefix: str) -> str:
        return f"  {prefix}{next(self.anonymous_counter)}"

    def _add_match(self, graph: QueryGraph, clause: ast.MatchClause) -> None:
        for pattern in clause.patterns:
            self._add_pattern(graph, pattern)
        if clause.where is not None:
            for conjunct in _split_conjuncts(clause.where):
                if isinstance(conjunct, ast.HasLabel) and conjunct.subject in (
                    graph.nodes
                ):
                    # Fold top-level label predicates into the pattern node.
                    graph.add_node(conjunct.subject, [conjunct.label])
                    if conjunct.subject not in self.bound:
                        continue
                graph.selections.append(conjunct)

    def _add_pattern(self, graph: QueryGraph, pattern: ast.PatternPath) -> None:
        previous_node: Optional[str] = None
        pending_rel: Optional[ast.RelPatternAst] = None
        for element in pattern.elements:
            if isinstance(element, ast.NodePatternAst):
                name = element.variable or self._fresh_name("node")
                graph.add_node(name, element.labels)
                if name in self.bound:
                    # Carried through WITH: no leaf binds it, so its labels
                    # are also checked as predicates.
                    graph.selections.extend(
                        ast.HasLabel(name, label) for label in element.labels
                    )
                for key, value in element.properties.items():
                    graph.selections.append(
                        ast.Comparison(
                            ast.ComparisonOp.EQ,
                            ast.PropertyAccess(name, key),
                            value,
                        )
                    )
                if pending_rel is not None:
                    assert previous_node is not None
                    rel_name = pending_rel.variable or self._fresh_name("rel")
                    if rel_name in self.bound:
                        # Carried through WITH: the pattern still has to
                        # match it, with its endpoints and uniquely, so it
                        # is traversed as a new relationship equal to it.
                        carried, rel_name = rel_name, self._fresh_name("rel")
                        graph.selections.append(
                            ast.Comparison(
                                ast.ComparisonOp.EQ,
                                ast.Variable(carried),
                                ast.Variable(rel_name),
                            )
                        )
                    if pending_rel.direction is ast.RelDirection.RIGHT_TO_LEFT:
                        start, end = name, previous_node
                        directed = True
                    elif pending_rel.direction is ast.RelDirection.LEFT_TO_RIGHT:
                        start, end = previous_node, name
                        directed = True
                    else:
                        start, end = previous_node, name
                        directed = False
                    graph.add_relationship(
                        rel_name, start, end, pending_rel.types, directed
                    )
                    for key, value in pending_rel.properties.items():
                        graph.selections.append(
                            ast.Comparison(
                                ast.ComparisonOp.EQ,
                                ast.PropertyAccess(rel_name, key),
                                value,
                            )
                        )
                    pending_rel = None
                previous_node = name
            else:
                pending_rel = element

    def _create_actions(
        self, clause: ast.CreateClause, graph: QueryGraph
    ) -> list[UpdateAction]:
        actions: list[UpdateAction] = []
        declared: set[str] = set()
        # Variables bound earlier in this part — by a WITH boundary or by the
        # part's own MATCH patterns — are reused, not re-created.
        bound = self.bound | set(graph.nodes) | set(graph.relationships)
        for pattern in clause.patterns:
            previous: Optional[str] = None
            pending: Optional[ast.RelPatternAst] = None
            for element in pattern.elements:
                if isinstance(element, ast.NodePatternAst):
                    name = element.variable or self._fresh_name("cnode")
                    is_new = name not in bound and name not in declared
                    if is_new:
                        declared.add(name)
                        actions.append(
                            UpdateAction(
                                kind="create_node",
                                variable=name,
                                labels=tuple(element.labels),
                                properties=dict(element.properties),
                            )
                        )
                    if pending is not None:
                        assert previous is not None
                        rel_name = pending.variable or self._fresh_name("crel")
                        if pending.direction is ast.RelDirection.RIGHT_TO_LEFT:
                            start, end = name, previous
                        else:
                            start, end = previous, name
                        actions.append(
                            UpdateAction(
                                kind="create_relationship",
                                variable=rel_name,
                                start=start,
                                end=end,
                                type=pending.types[0],
                                properties=dict(pending.properties),
                            )
                        )
                        pending = None
                    previous = name
                else:
                    pending = element
        return actions


def _split_conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    """Flatten a top-level AND tree into its conjuncts."""
    if isinstance(expression, ast.BooleanOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]
