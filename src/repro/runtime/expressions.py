"""Expression evaluation with Cypher's ternary (NULL) logic.

``compile_expression`` is the one evaluator: it resolves variable names to
slot indices and token names to token ids once, when a part is compiled
(or a sort's keys per execution), and returns a closure evaluating the
expression against a slot row. The closure returns a Python value or None (Cypher
NULL). Comparisons involving NULL yield None; `AND`/`OR`/`NOT` follow
three-valued logic; a filter keeps a row only when its predicate evaluates
to exactly True. Property access resolves through the graph store using the
variable-kind annotations from semantic analysis. Token ids unknown at
compile time (a label or property key created by an earlier part of the
same query) fall back to a per-call lookup.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cypher import ast
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError
from repro.storage.graphstore import GraphStore


class EvaluationContext:
    """Everything expression evaluation needs: store + variable kinds, and
    the parameter tuple of the execution (``params[i]`` is the value of
    :class:`~repro.cypher.ast.Parameter` slot ``i``)."""

    def __init__(
        self,
        store: GraphStore,
        variable_kinds: dict[str, VariableKind],
        params: Sequence[object] = (),
    ) -> None:
        self.store = store
        self.variable_kinds = variable_kinds
        self.params = params

    def bound(self, params: Sequence[object]) -> "EvaluationContext":
        """This context for one execution binding ``params``."""
        if params is self.params or not (params or self.params):
            return self
        return EvaluationContext(self.store, self.variable_kinds, params)


def _apply_scalar_function(name: str, argument, ctx: EvaluationContext):
    if argument is None:
        return None
    if name == "id":
        return int(argument)
    if name == "type":
        record = ctx.store.relationship(int(argument))
        return ctx.store.types.name_of(record.type_id)
    if name == "labels":
        label_ids = ctx.store.node_labels(int(argument))
        return sorted(ctx.store.labels.name_of(label_id) for label_id in label_ids)
    if name == "size":
        if isinstance(argument, (list, str)):
            return len(argument)
        raise ReproError(f"size() expects a list or string, got {argument!r}")
    raise ReproError(f"unknown function {name}()")


# ---------------------------------------------------------------------------


def _truthy(value: object) -> bool:
    return bool(value)


def _compare(op: ast.ComparisonOp, left, right):
    if left is None or right is None:
        return None
    if op is ast.ComparisonOp.EQ:
        return _eq(left, right)
    if op is ast.ComparisonOp.NEQ:
        equal = _eq(left, right)
        return None if equal is None else not equal
    if not _orderable(left, right):
        return None
    if op is ast.ComparisonOp.LT:
        return left < right
    if op is ast.ComparisonOp.GT:
        return left > right
    if op is ast.ComparisonOp.LE:
        return left <= right
    return left >= right


def _eq(left, right):
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if type(left) is not type(right):
        return False
    return left == right


def _orderable(left, right) -> bool:
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    return (numeric or textual) and not (
        isinstance(left, bool) or isinstance(right, bool)
    )


def _boolean_value(op: str, left, right):
    left_bool = None if left is None else _truthy(left)
    right_bool = None if right is None else _truthy(right)
    if op == "AND":
        if left_bool is False or right_bool is False:
            return False
        if left_bool is None or right_bool is None:
            return None
        return True
    if op == "OR":
        if left_bool is True or right_bool is True:
            return True
        if left_bool is None or right_bool is None:
            return None
        return False
    # XOR
    if left_bool is None or right_bool is None:
        return None
    return left_bool != right_bool


def _arithmetic(op: str, left, right):
    if left is None or right is None:
        return None
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ReproError(f"cannot apply {op!r} to {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ReproError("division by zero")
        return left / right if isinstance(left, float) or isinstance(right, float) else left // right
    if op == "%":
        if right == 0:
            raise ReproError("modulo by zero")
        return left % right
    raise ReproError(f"unknown arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Compilation to slot-row closures
# ---------------------------------------------------------------------------

SlotFn = Callable[[Sequence], object]
"""A compiled expression: slot row in, value (or None = NULL) out."""


def compile_expression(
    expression: ast.Expression,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
    params: Optional[Sequence[object]] = None,
) -> SlotFn:
    """Compile ``expression`` into a closure over slot indices.

    ``slot_of`` maps a variable name to its slot. A
    :class:`~repro.cypher.ast.Parameter` reads ``params`` when given (a
    closure for one execution); otherwise it is looked up like a variable,
    ``slot_of(parameter)``, and the caller puts the execution's value in
    that slot, so the closure itself holds no value. An aggregate call is
    looked up the same way, ``slot_of(call)``: the aggregation operator
    puts the call's result there (``count(x) + 1``).
    """
    if isinstance(expression, ast.Parameter):
        if params is not None:
            bound = params[expression.index]
            return lambda row: bound
        slot = slot_of(expression)
        return lambda row: row[slot]
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ast.Variable):
        slot = slot_of(expression.name)
        return lambda row: row[slot]
    if isinstance(expression, ast.FunctionCall):
        return _compile_function(expression, slot_of, ctx, params)
    if isinstance(expression, ast.PropertyAccess):
        return _compile_property(expression, slot_of, ctx)
    if isinstance(expression, ast.HasLabel):
        return _compile_has_label(expression, slot_of, ctx)
    if isinstance(expression, ast.Comparison):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx, params)
        right = compile_expression(expression.right, slot_of, ctx, params)
        return lambda row: _compare(op, left(row), right(row))
    if isinstance(expression, ast.Not):
        operand = compile_expression(expression.operand, slot_of, ctx, params)

        def negate(row):
            value = operand(row)
            return None if value is None else not _truthy(value)

        return negate
    if isinstance(expression, ast.BooleanOp):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx, params)
        right = compile_expression(expression.right, slot_of, ctx, params)
        return lambda row: _boolean_value(op, left(row), right(row))
    if isinstance(expression, ast.Arithmetic):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx, params)
        right = compile_expression(expression.right, slot_of, ctx, params)
        return lambda row: _arithmetic(op, left(row), right(row))
    raise ReproError(f"cannot evaluate expression {expression!r}")


def compile_predicate(
    expression: ast.Expression,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
    params: Optional[Sequence[object]] = None,
) -> Callable[[Sequence], bool]:
    """Predicate semantics: only an exact True passes."""
    compiled = compile_expression(expression, slot_of, ctx, params)
    return lambda row: compiled(row) is True


def _compile_function(
    expression: ast.FunctionCall,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
    params: Optional[Sequence[object]],
) -> SlotFn:
    name = expression.name
    if expression.is_aggregate:
        slot = slot_of(expression)
        return lambda row: row[slot]
    if expression.argument is None:
        # No argument means a NULL argument, and every scalar function maps
        # NULL to NULL.
        return lambda row: None
    argument = compile_expression(expression.argument, slot_of, ctx, params)
    return lambda row: _apply_scalar_function(name, argument(row), ctx)


def _compile_property(
    expression: ast.PropertyAccess,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
) -> SlotFn:
    subject = expression.subject
    key = expression.key
    slot = slot_of(subject)
    store = ctx.store
    keys = store.property_keys
    key_id_static = keys.id_of(key)
    kind = ctx.variable_kinds.get(subject)
    if kind is VariableKind.RELATIONSHIP:
        getter = store.relationship_property
    elif kind is VariableKind.NODE:
        getter = store.node_property
    else:
        getter = None

    def fn(row):
        value = row[slot]
        key_id = key_id_static if key_id_static is not None else keys.id_of(key)
        if key_id is None or value is None:
            return None
        if getter is None:
            raise ReproError(
                f"cannot access property {key!r} of value {subject!r}"
            )
        return getter(int(value), key_id)

    return fn


def _compile_has_label(
    expression: ast.HasLabel,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
) -> SlotFn:
    slot = slot_of(expression.subject)
    label = expression.label
    store = ctx.store
    label_id_static = store.labels.id_of(label)

    def fn(row):
        value = row[slot]
        if value is None:
            return None
        label_id = (
            label_id_static
            if label_id_static is not None
            else store.labels.id_of(label)
        )
        if label_id is None:
            return False
        return store.has_label(int(value), label_id)

    return fn
