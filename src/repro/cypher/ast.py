"""AST node definitions for the Cypher subset.

Plain dataclasses; the parser builds them and the semantic analyzer / query
graph builder consume them. Expression nodes know how to render themselves
back to Cypher text (used in error messages and plan descriptions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ReproError


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression AST nodes."""

    def variables(self) -> set[str]:
        """Free variables referenced by this expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    value: object

    def variables(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


# Type classes of a parameter slot. Every value ever bound to a slot has
# its slot's class, so the planner may rely on the class but never on the
# value: an INT slot holds a non-negative int (a literal's digits carry no
# sign; a negative ``$name`` value is NEG_INT), which is what lets
# ``id(v) = $k`` seek.
INT, NEG_INT, FLOAT, STR, BOOL, NULL = "int", "-int", "float", "str", "bool", "null"

_TYPE_CLASSES = {float: FLOAT, str: STR, bool: BOOL, type(None): NULL}


def type_class(value: object) -> str:
    """The slot type class of a ``$name`` value; raises on other types."""
    if type(value) is int:
        return INT if value >= 0 else NEG_INT
    try:
        return _TYPE_CLASSES[type(value)]
    except KeyError:
        raise ReproError(
            f"unsupported parameter value {value!r}: expected int, float, "
            "str, bool or None"
        ) from None


@dataclass(frozen=True)
class Parameter(Expression):
    """Slot ``index`` of the parameter tuple an execution binds.

    ``$name`` in the text, or a literal the plan cache parameterised
    (``name`` None). A plan holding slots is shared by every text of its
    shape; runtimes read the value per execution and never bake it in.
    ``kind`` is the slot's type class (None: unknown, as in ``explain``).
    """

    index: int
    kind: Optional[str] = None
    name: Optional[str] = None

    def variables(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return f"${self.name if self.name is not None else self.index}"


def has_literal_slot(expression: "Expression") -> bool:
    """Does ``expression`` hold a parameterised literal (an unnamed slot)?"""
    if isinstance(expression, Parameter):
        return expression.name is None
    for attr in ("left", "right", "operand", "argument"):
        child = getattr(expression, attr, None)
        if isinstance(child, Expression) and has_literal_slot(child):
            return True
    return False


@dataclass(frozen=True)
class Variable(Expression):
    name: str

    def variables(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PropertyAccess(Expression):
    subject: str
    key: str

    def variables(self) -> set[str]:
        return {self.subject}

    def __str__(self) -> str:
        return f"{self.subject}.{self.key}"


class ComparisonOp(enum.Enum):
    EQ = "="
    NEQ = "<>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="


@dataclass(frozen=True)
class Comparison(Expression):
    op: ComparisonOp
    left: Expression
    right: Expression

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class BooleanOp(Expression):
    op: str  # "AND" | "OR" | "XOR"
    left: Expression
    right: Expression

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def variables(self) -> set[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True)
class Arithmetic(Expression):
    op: str  # "+", "-", "*", "/", "%"
    left: Expression
    right: Expression

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "min", "max", "avg", "collect"})
SCALAR_FUNCTIONS = frozenset({"id", "type", "labels", "size"})


@dataclass(frozen=True)
class FunctionCall(Expression):
    """``count(*)``, ``sum(x)``, ``collect(DISTINCT x)``, ``id(n)``, ..."""

    name: str  # lower-cased
    argument: Optional["Expression"] = None
    star: bool = False  # count(*)
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def variables(self) -> set[str]:
        if self.argument is None:
            return set()
        return self.argument.variables()

    def __str__(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = f"DISTINCT {self.argument}" if self.distinct else str(self.argument)
        return f"{self.name}({inner})"


def contains_aggregate(expression: "Expression") -> bool:
    """Does any sub-expression call an aggregate function?"""
    if isinstance(expression, FunctionCall):
        if expression.is_aggregate:
            return True
        return expression.argument is not None and contains_aggregate(
            expression.argument
        )
    for attr in ("left", "right", "operand", "argument"):
        child = getattr(expression, attr, None)
        if isinstance(child, Expression) and contains_aggregate(child):
            return True
    return False


def id_equality(
    expression: "Expression",
) -> Optional[tuple[str, Union[int, Parameter]]]:
    """``id(v) = k`` or ``k = id(v)`` with ``k`` a non-negative integer
    literal or an INT slot → ``(v, k)``; anything else → None.

    The one place that decides which literals can name an entity: the
    planner's NodeByIdSeek, its selectivity estimate and the path-index
    scan bound all ask here, so everything they decline — ``TRUE`` (a bool
    is an ``int`` to Python, not to Cypher), floats, strings, NULL,
    negative numbers, and slots of those classes — stays an ordinary
    predicate with the evaluator's semantics. A slot's class, not its
    value, decides, so the answer holds for every text of the shape.
    """
    if not isinstance(expression, Comparison) or expression.op is not ComparisonOp.EQ:
        return None
    call, literal = expression.left, expression.right
    if isinstance(call, (Literal, Parameter)):
        call, literal = literal, call
    if not (
        isinstance(call, FunctionCall)
        and call.name == "id"
        and isinstance(call.argument, Variable)
    ):
        return None
    if isinstance(literal, Parameter):
        return (call.argument.name, literal) if literal.kind == INT else None
    if isinstance(literal, Literal) and type(literal.value) is int and literal.value >= 0:
        return call.argument.name, literal.value
    return None


@dataclass(frozen=True)
class HasLabel(Expression):
    """`var:Label` used as a predicate (also produced by semantic analysis)."""

    subject: str
    label: str

    def variables(self) -> set[str]:
        return {self.subject}

    def __str__(self) -> str:
        return f"{self.subject}:{self.label}"


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class RelDirection(enum.Enum):
    """Syntactic arrow direction of a relationship pattern element."""

    LEFT_TO_RIGHT = "->"
    RIGHT_TO_LEFT = "<-"
    UNDIRECTED = "--"


@dataclass
class NodePatternAst:
    """`(var:Label {key: value, ...})`."""

    variable: Optional[str]
    labels: tuple[str, ...] = ()
    properties: dict[str, Expression] = field(default_factory=dict)

    def __str__(self) -> str:
        label_text = "".join(f":{label}" for label in self.labels)
        return f"({self.variable or ''}{label_text})"


@dataclass
class RelPatternAst:
    """`-[var:TYPE]->` (or reversed / undirected)."""

    variable: Optional[str]
    types: tuple[str, ...] = ()
    direction: RelDirection = RelDirection.LEFT_TO_RIGHT
    properties: dict[str, Expression] = field(default_factory=dict)

    def __str__(self) -> str:
        type_text = "|".join(f":{t}" for t in self.types)
        body = f"[{self.variable or ''}{type_text}]"
        if self.direction is RelDirection.LEFT_TO_RIGHT:
            return f"-{body}->"
        if self.direction is RelDirection.RIGHT_TO_LEFT:
            return f"<-{body}-"
        return f"-{body}-"


@dataclass
class PatternPath:
    """Alternating node/relationship pattern elements, nodes at both ends."""

    elements: list[Union[NodePatternAst, RelPatternAst]]

    def nodes(self) -> list[NodePatternAst]:
        return [e for e in self.elements if isinstance(e, NodePatternAst)]

    def relationships(self) -> list[RelPatternAst]:
        return [e for e in self.elements if isinstance(e, RelPatternAst)]

    def __str__(self) -> str:
        return "".join(str(element) for element in self.elements)


# ---------------------------------------------------------------------------
# Clauses and query structure
# ---------------------------------------------------------------------------


@dataclass
class ProjectionItem:
    expression: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias is not None:
            return self.alias
        return str(self.expression)

    def __str__(self) -> str:
        if self.alias is not None:
            return f"{self.expression} AS {self.alias}"
        return str(self.expression)


class Clause:
    """Base class for clause AST nodes."""


@dataclass
class MatchClause(Clause):
    patterns: list[PatternPath]
    where: Optional[Expression] = None
    optional: bool = False


@dataclass
class WithClause(Clause):
    items: list[ProjectionItem]
    star: bool = False
    distinct: bool = False
    where: Optional[Expression] = None


@dataclass
class ReturnClause(Clause):
    items: list[ProjectionItem]
    star: bool = False
    distinct: bool = False
    order_by: list[tuple[Expression, bool]] = field(default_factory=list)
    limit: Optional[Union[int, Parameter]] = None
    skip: Optional[Union[int, Parameter]] = None


@dataclass
class CreateClause(Clause):
    patterns: list[PatternPath]


@dataclass
class DeleteClause(Clause):
    expressions: list[Expression]
    detach: bool = False


@dataclass
class SingleQuery:
    """A full query: an ordered list of clauses ending in RETURN (for reads)
    or any write clause (for updates)."""

    clauses: list[Clause]

    def __str__(self) -> str:
        return f"SingleQuery({len(self.clauses)} clauses)"
