"""Semantic analysis: scoping and variable-kind annotation.

Walks the clause list, tracking which variables are in scope and whether each
names a node, a relationship or a plain value — the annotation step of the
pipeline (§2.2: "this AST is semantically annotated"). Projection boundaries
(`WITH`, `RETURN`) reset the scope to the projected names. `RETURN *` /
`WITH *` are expanded here into explicit items, in order of introduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cypher import ast
from repro.errors import CypherSemanticError


class VariableKind(enum.Enum):
    NODE = "node"
    RELATIONSHIP = "relationship"
    VALUE = "value"


@dataclass
class AnalyzedQuery:
    """The AST plus the results of semantic analysis.

    ``variable_kinds`` maps every variable name (across the whole query) to
    its kind; boundary clauses carry their expanded projection items in
    ``resolved_projections`` keyed by clause identity.
    """

    query: ast.SingleQuery
    variable_kinds: dict[str, VariableKind] = field(default_factory=dict)
    resolved_projections: dict[int, list[ast.ProjectionItem]] = field(
        default_factory=dict
    )
    is_write: bool = False

    def projection_items(self, clause: ast.Clause) -> list[ast.ProjectionItem]:
        return self.resolved_projections[id(clause)]


def analyze(query: ast.SingleQuery) -> AnalyzedQuery:
    """Check scoping rules and annotate variable kinds; raises
    :class:`CypherSemanticError` on violations."""
    return _Analyzer(query).run()


class _Analyzer:
    def __init__(self, query: ast.SingleQuery) -> None:
        self.query = query
        self.result = AnalyzedQuery(query=query)
        # In-scope variables, in order of introduction.
        self.scope: dict[str, VariableKind] = {}

    def run(self) -> AnalyzedQuery:
        clauses = self.query.clauses
        if not clauses:
            raise CypherSemanticError("query has no clauses")
        for position, clause in enumerate(clauses):
            is_last = position == len(clauses) - 1
            if isinstance(clause, ast.MatchClause):
                self._analyze_match(clause)
            elif isinstance(clause, ast.WithClause):
                self._analyze_projection(clause)
            elif isinstance(clause, ast.ReturnClause):
                if not is_last:
                    raise CypherSemanticError("RETURN must be the final clause")
                self._analyze_projection(clause)
            elif isinstance(clause, ast.CreateClause):
                self.result.is_write = True
                self._analyze_create(clause)
            elif isinstance(clause, ast.DeleteClause):
                self.result.is_write = True
                self._analyze_delete(clause)
            else:  # pragma: no cover - parser produces only the above
                raise CypherSemanticError(f"unsupported clause {clause!r}")
        last = clauses[-1]
        if not self.result.is_write and not isinstance(last, ast.ReturnClause):
            raise CypherSemanticError("a read query must end with RETURN")
        return self.result

    # ------------------------------------------------------------------

    def _analyze_match(self, clause: ast.MatchClause) -> None:
        for pattern in clause.patterns:
            self._declare_pattern(pattern, allow_rebinding=True)
        if clause.where is not None:
            if ast.contains_aggregate(clause.where):
                raise CypherSemanticError(
                    "aggregate functions are not allowed in WHERE"
                )
            self._check_expression(clause.where)

    def _analyze_create(self, clause: ast.CreateClause) -> None:
        for pattern in clause.patterns:
            for element in pattern.elements:
                if isinstance(element, ast.NodePatternAst):
                    if element.variable is None:
                        continue
                    existing = self.scope.get(element.variable)
                    if existing is None:
                        self._bind(element.variable, VariableKind.NODE)
                    elif existing is not VariableKind.NODE:
                        raise CypherSemanticError(
                            f"variable {element.variable!r} already bound as "
                            f"{existing.value}"
                        )
                    elif element.labels:
                        raise CypherSemanticError(
                            f"cannot add labels to bound node "
                            f"{element.variable!r} in CREATE"
                        )
                else:
                    if len(element.types) != 1:
                        raise CypherSemanticError(
                            "CREATE requires exactly one relationship type"
                        )
                    if element.direction is ast.RelDirection.UNDIRECTED:
                        raise CypherSemanticError(
                            "CREATE requires a directed relationship"
                        )
                    if element.variable is not None:
                        if element.variable in self.scope:
                            raise CypherSemanticError(
                                f"relationship variable {element.variable!r} "
                                "already bound"
                            )
                        self._bind(element.variable, VariableKind.RELATIONSHIP)

    def _analyze_delete(self, clause: ast.DeleteClause) -> None:
        for expression in clause.expressions:
            if not isinstance(expression, ast.Variable):
                raise CypherSemanticError("DELETE expects variables")
            kind = self.scope.get(expression.name)
            if kind is None:
                raise CypherSemanticError(
                    f"variable {expression.name!r} not defined"
                )
            if kind is VariableKind.VALUE:
                raise CypherSemanticError(
                    f"cannot DELETE {expression.name!r}: it holds a value, "
                    "not a node or relationship"
                )

    def _analyze_projection(self, clause) -> None:
        if clause.star:
            items = [
                ast.ProjectionItem(ast.Variable(name), alias=name)
                for name in self.scope
            ]
            if not items:
                raise CypherSemanticError("RETURN * with nothing in scope")
        else:
            items = clause.items
            for item in items:
                self._check_expression(item.expression)
                self._check_aggregate_nesting(item.expression)
        self.result.resolved_projections[id(clause)] = items
        old_scope = self.scope
        # The projection defines the next scope.
        new_scope: dict[str, VariableKind] = {}
        for item in items:
            name = item.output_name
            kind = self._expression_kind(item.expression)
            if name in new_scope:
                raise CypherSemanticError(f"duplicate projection name {name!r}")
            new_scope[name] = kind
        self.scope = new_scope
        for name, kind in new_scope.items():
            self._record_kind(name, kind)
        if isinstance(clause, ast.WithClause) and clause.where is not None:
            self._check_expression(clause.where)
        if isinstance(clause, ast.ReturnClause):
            # ORDER BY may reference both projected names and the variables
            # of the preceding MATCH (Cypher's hybrid scope).
            combined = dict(old_scope)
            combined.update(new_scope)
            for expression, _ in clause.order_by:
                for name in expression.variables():
                    if name not in combined:
                        raise CypherSemanticError(
                            f"variable {name!r} not defined"
                        )
                # A key that repeats a projected expression is that column.
                if all(item.expression != expression for item in items):
                    _check_entity_uses(expression, combined)

    # ------------------------------------------------------------------

    def _declare_pattern(self, pattern: ast.PatternPath, allow_rebinding: bool) -> None:
        if not pattern.elements or isinstance(
            pattern.elements[-1], ast.RelPatternAst
        ):
            raise CypherSemanticError("pattern must start and end with a node")
        seen_rel_vars: set[str] = set()
        for element in pattern.elements:
            if isinstance(element, ast.NodePatternAst):
                if element.variable is not None:
                    self._bind_checked(element.variable, VariableKind.NODE)
                for value in element.properties.values():
                    self._check_expression(value, allow_unbound=True)
            else:
                if element.variable is not None:
                    if element.variable in seen_rel_vars or (
                        self.scope.get(element.variable)
                        is VariableKind.RELATIONSHIP
                        and not allow_rebinding
                    ):
                        raise CypherSemanticError(
                            f"relationship variable {element.variable!r} "
                            "reused in pattern"
                        )
                    seen_rel_vars.add(element.variable)
                    self._bind_checked(element.variable, VariableKind.RELATIONSHIP)

    def _bind_checked(self, name: str, kind: VariableKind) -> None:
        existing = self.scope.get(name)
        if existing is not None and existing is not kind:
            raise CypherSemanticError(
                f"variable {name!r} already bound as {existing.value}, "
                f"cannot rebind as {kind.value}"
            )
        self._bind(name, kind)

    def _bind(self, name: str, kind: VariableKind) -> None:
        self.scope[name] = kind
        self._record_kind(name, kind)

    def _record_kind(self, name: str, kind: VariableKind) -> None:
        previous = self.result.variable_kinds.get(name)
        if previous is None or previous is VariableKind.VALUE:
            self.result.variable_kinds[name] = kind

    def _check_expression(
        self, expression: ast.Expression, allow_unbound: bool = False
    ) -> None:
        if allow_unbound:
            return
        for name in expression.variables():
            if name not in self.scope:
                raise CypherSemanticError(f"variable {name!r} not defined")
        _check_entity_uses(expression, self.scope)

    def _check_aggregate_nesting(
        self, expression: ast.Expression, inside_aggregate: bool = False
    ) -> None:
        if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
            if inside_aggregate:
                raise CypherSemanticError("aggregate functions cannot be nested")
            if expression.argument is not None:
                self._check_aggregate_nesting(expression.argument, True)
            return
        for attr in ("left", "right", "operand", "argument"):
            child = getattr(expression, attr, None)
            if isinstance(child, ast.Expression):
                self._check_aggregate_nesting(child, inside_aggregate)

    def _expression_kind(self, expression: ast.Expression) -> VariableKind:
        if isinstance(expression, ast.Variable):
            return self.scope.get(expression.name, VariableKind.VALUE)
        return VariableKind.VALUE


_ENTITY_FUNCTIONS = frozenset({"id", "labels", "type"})


def _check_entity_uses(
    expression: ast.Expression, scope: dict[str, VariableKind]
) -> None:
    """Reject reading a name ``scope`` holds as a value as if it were an
    entity: a property access, a label test, ``id()``, ``labels()`` or
    ``type()`` of it."""
    if isinstance(expression, (ast.PropertyAccess, ast.HasLabel)):
        name = expression.subject
    elif (
        isinstance(expression, ast.FunctionCall)
        and expression.name in _ENTITY_FUNCTIONS
        and isinstance(expression.argument, ast.Variable)
    ):
        name = expression.argument.name
    else:
        name = None
    if name is not None and scope.get(name) is VariableKind.VALUE:
        raise CypherSemanticError(
            f"{expression} reads {name!r} as a node or relationship, but it "
            "holds a value here"
        )
    for attr in ("left", "right", "operand", "argument"):
        child = getattr(expression, attr, None)
        if isinstance(child, ast.Expression):
            _check_entity_uses(child, scope)
