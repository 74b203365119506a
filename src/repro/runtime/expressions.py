"""Expression evaluation with Cypher's ternary (NULL) logic.

``evaluate`` returns a Python value or None (Cypher NULL). Comparisons
involving NULL yield None; `AND`/`OR`/`NOT` follow three-valued logic; a
filter keeps a row only when its predicate evaluates to exactly True.
Property access resolves through the graph store using the variable-kind
annotations from semantic analysis.

``compile_expression`` is the compiled engine's counterpart: it resolves
variable names to slot indices and token names to token ids once, at
compile time, and returns a closure evaluating the expression against a
slot row (a fixed-width list) with no per-row AST walk or dict lookups.
Token ids unknown at compile time (a label or property key created by an
earlier part of the same query) fall back to a per-call lookup, so the
compiled form is observationally identical to ``evaluate``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cypher import ast
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError
from repro.storage.graphstore import GraphStore


class EvaluationContext:
    """Everything expression evaluation needs: store + variable kinds."""

    def __init__(
        self, store: GraphStore, variable_kinds: dict[str, VariableKind]
    ) -> None:
        self.store = store
        self.variable_kinds = variable_kinds

    def property_of(self, name: str, value: object, key: str) -> object:
        key_id = self.store.property_keys.id_of(key)
        if key_id is None or value is None:
            return None
        kind = self.variable_kinds.get(name)
        if kind is VariableKind.RELATIONSHIP:
            return self.store.relationship_property(int(value), key_id)
        if kind is VariableKind.NODE:
            return self.store.node_property(int(value), key_id)
        raise ReproError(f"cannot access property {key!r} of value {name!r}")

    def has_label(self, value: object, label: str) -> Optional[bool]:
        if value is None:
            return None
        label_id = self.store.labels.id_of(label)
        if label_id is None:
            return False
        return self.store.has_label(int(value), label_id)


def evaluate(
    expression: ast.Expression,
    row,
    ctx: EvaluationContext,
    aggregate_values: Optional[dict] = None,
):
    """Evaluate ``expression`` against ``row``; None means Cypher NULL.

    ``aggregate_values`` maps aggregate :class:`~repro.cypher.ast.FunctionCall`
    nodes (they are hashable value objects) to their pre-computed results —
    the aggregation operator substitutes them when evaluating a projection
    item like ``count(x) + 1``.
    """
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Variable):
        return row.get(expression.name)
    if isinstance(expression, ast.FunctionCall):
        if aggregate_values is not None and expression in aggregate_values:
            return aggregate_values[expression]
        if expression.is_aggregate:
            raise ReproError(
                f"aggregate function {expression.name}() outside an "
                "aggregating projection"
            )
        return _scalar_function(expression, row, ctx, aggregate_values)
    if isinstance(expression, ast.PropertyAccess):
        return ctx.property_of(
            expression.subject, row.get(expression.subject), expression.key
        )
    if isinstance(expression, ast.HasLabel):
        return ctx.has_label(row.get(expression.subject), expression.label)
    if isinstance(expression, ast.Comparison):
        return _compare(
            expression.op,
            evaluate(expression.left, row, ctx, aggregate_values),
            evaluate(expression.right, row, ctx, aggregate_values),
        )
    if isinstance(expression, ast.Not):
        value = evaluate(expression.operand, row, ctx, aggregate_values)
        return None if value is None else not _truthy(value)
    if isinstance(expression, ast.BooleanOp):
        return _boolean(expression, row, ctx, aggregate_values)
    if isinstance(expression, ast.Arithmetic):
        return _arithmetic(
            expression.op,
            evaluate(expression.left, row, ctx, aggregate_values),
            evaluate(expression.right, row, ctx, aggregate_values),
        )
    raise ReproError(f"cannot evaluate expression {expression!r}")


def _scalar_function(
    expression: ast.FunctionCall, row, ctx: EvaluationContext, aggregate_values
):
    argument = (
        evaluate(expression.argument, row, ctx, aggregate_values)
        if expression.argument is not None
        else None
    )
    return _apply_scalar_function(expression.name, argument, ctx)


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


def is_true(expression: ast.Expression, row, ctx: EvaluationContext) -> bool:
    """Predicate semantics: only an exact True passes."""
    return evaluate(expression, row, ctx) is True


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


def _boolean(expression: ast.BooleanOp, row, ctx, aggregate_values=None):
    left = evaluate(expression.left, row, ctx, aggregate_values)
    right = evaluate(expression.right, row, ctx, aggregate_values)
    return _boolean_value(expression.op, left, right)


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
# Compiled (slot-row) evaluation for generated code
# ---------------------------------------------------------------------------

SlotFn = Callable[[Sequence], object]
"""A compiled expression: slot row in, value (or None = NULL) out."""


def compile_expression(
    expression: ast.Expression,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
) -> SlotFn:
    """Compile ``expression`` into a closure over slot indices.

    ``slot_of`` maps a variable name to its slot, allocating one if the
    layout has not seen the name yet. The returned function must behave
    exactly like ``evaluate`` on a dict row carrying the same bindings.
    """
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ast.Variable):
        slot = slot_of(expression.name)
        return lambda row: row[slot]
    if isinstance(expression, ast.FunctionCall):
        return _compile_function(expression, slot_of, ctx)
    if isinstance(expression, ast.PropertyAccess):
        return _compile_property(expression, slot_of, ctx)
    if isinstance(expression, ast.HasLabel):
        return _compile_has_label(expression, slot_of, ctx)
    if isinstance(expression, ast.Comparison):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx)
        right = compile_expression(expression.right, slot_of, ctx)
        return lambda row: _compare(op, left(row), right(row))
    if isinstance(expression, ast.Not):
        operand = compile_expression(expression.operand, slot_of, ctx)

        def negate(row):
            value = operand(row)
            return None if value is None else not _truthy(value)

        return negate
    if isinstance(expression, ast.BooleanOp):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx)
        right = compile_expression(expression.right, slot_of, ctx)
        return lambda row: _boolean_value(op, left(row), right(row))
    if isinstance(expression, ast.Arithmetic):
        op = expression.op
        left = compile_expression(expression.left, slot_of, ctx)
        right = compile_expression(expression.right, slot_of, ctx)
        return lambda row: _arithmetic(op, left(row), right(row))
    raise ReproError(f"cannot evaluate expression {expression!r}")


def compile_predicate(
    expression: ast.Expression,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
) -> Callable[[Sequence], bool]:
    """Compiled ``is_true``: only an exact True passes."""
    compiled = compile_expression(expression, slot_of, ctx)
    return lambda row: compiled(row) is True


def _compile_function(
    expression: ast.FunctionCall,
    slot_of: Callable[[str], int],
    ctx: EvaluationContext,
) -> SlotFn:
    name = expression.name
    if expression.is_aggregate:
        # Aggregates are computed by the aggregation operator; reaching one
        # here mirrors ``evaluate`` without aggregate_values.
        def aggregate_error(row):
            raise ReproError(
                f"aggregate function {name}() outside an aggregating projection"
            )

        return aggregate_error
    if expression.argument is None:
        # No argument means a NULL argument, and every scalar function maps
        # NULL to NULL (same as ``_scalar_function``).
        return lambda row: None
    argument = compile_expression(expression.argument, slot_of, ctx)
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
