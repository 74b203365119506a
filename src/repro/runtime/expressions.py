"""Expressions as generated source, with Cypher's ternary (NULL) logic.

:func:`expression_source` is the one place an expression AST becomes code:
it returns a Python expression that generated code evaluates inline.
``ref(name)`` gives the code reading a variable, or an aggregate call's
result, where the expression sits; a parameter reads ``_params[i]``. Token
ids are resolved at compile time, with a per-call lookup for a label or
property key unknown then (one created by an earlier part of the same
query, or by a write after compilation).

The source calls the helpers below, so the semantics live here alone.
Every value is a Python value or None (Cypher NULL). Comparisons involving
NULL yield None; `AND`/`OR`/`XOR`/`NOT` follow three-valued logic and
evaluate both operands; a filter keeps a row only when its predicate is
exactly True. Property access reads the graph store according to the
variable-kind annotations of semantic analysis.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.cypher import ast
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError
from repro.storage.graphstore import GraphStore

_ENTITIES = (VariableKind.NODE, VariableKind.RELATIONSHIP)


def _apply_scalar_function(name: str, argument, store: GraphStore):
    if argument is None:
        return None
    if name == "id":
        return int(argument)
    if name == "type":
        record = store.relationship(int(argument))
        return store.types.name_of(record.type_id)
    if name == "labels":
        label_ids = store.node_labels(int(argument))
        return sorted(store.labels.name_of(label_id) for label_id in label_ids)
    if name == "size":
        if isinstance(argument, (list, str)):
            return len(argument)
        raise ReproError(f"size() expects a list or string, got {argument!r}")
    raise ReproError(f"unknown function {name}()")


def _property(getter, value, key_id, text: str = ""):
    """``value.key``: NULL on a NULL subject or a key no entity has.
    ``getter`` reads a node's or a relationship's property; None when the
    subject ``text`` names is not an entity."""
    if value is None or key_id is None:
        return None
    if getter is None:
        raise ReproError(f"cannot access property {text}: not a node or relationship")
    return getter(int(value), key_id)


def _has_label(has_label, value, label_id):
    """``value:Label``: NULL on a NULL subject, false for a label no node has."""
    if value is None:
        return None
    return label_id is not None and has_label(int(value), label_id)


# ---------------------------------------------------------------------------


def _truthy(value: object) -> bool:
    return bool(value)


def _compare(op: str, left, right):
    if left is None or right is None:
        return None
    if op == "=":
        return _eq(left, right)
    if op == "<>":
        equal = _eq(left, right)
        return None if equal is None else not equal
    if not _orderable(left, right):
        return None
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
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
# Emission
# ---------------------------------------------------------------------------


def expression_source(
    expression: ast.Expression,
    ref: Callable[[object], str],
    store: GraphStore,
    variable_kinds: dict[str, VariableKind],
    env: dict[str, object],
) -> str:
    """Code evaluating ``expression`` (NULL-safe).

    ``ref(name)`` is the code reading variable ``name``, or the result of
    an aggregate call (``ref(call)``, as in ``count(x) + 1``). The code
    reads ``_params`` and the names it adds to ``env``: the helpers above
    and the store's accessors, under fixed names.
    """

    def use(name: str, value: object) -> str:
        env[name] = value
        return name

    def code(node: ast.Expression) -> str:
        if isinstance(node, ast.Parameter):
            return f"_params[{node.index}]"
        if isinstance(node, ast.Literal):
            value = node.value
            if isinstance(value, float) and not math.isfinite(value):
                return f"float({str(value)!r})"
            return repr(value)
        if isinstance(node, ast.Variable):
            return ref(node.name)
        if isinstance(node, ast.FunctionCall):
            if node.is_aggregate:
                return ref(node)
            if node.argument is None:
                # No argument means a NULL argument, and every scalar
                # function maps NULL to NULL.
                return "None"
            argument = code(node.argument)
            if (
                node.name == "id"
                and isinstance(node.argument, ast.Variable)
                and variable_kinds.get(node.argument.name) in _ENTITIES
            ):
                return argument  # an entity's value is its id
            function = use("_function", _apply_scalar_function)
            return f"{function}({node.name!r}, {argument}, {use('_store', store)})"
        if isinstance(node, ast.PropertyAccess):
            keys = store.property_keys
            key_id = keys.id_of(node.key)
            key = (
                repr(key_id)
                if key_id is not None
                else f"{use('_key_id', keys.id_of)}({node.key!r})"
            )
            getter = {
                VariableKind.NODE: ("_node_property", store.node_property),
                VariableKind.RELATIONSHIP: (
                    "_relationship_property",
                    store.relationship_property,
                ),
            }.get(variable_kinds.get(node.subject))
            subject = ref(node.subject)
            if getter is None:
                return f"{use('_property', _property)}(None, {subject}, {key}, {str(node)!r})"
            return f"{use('_property', _property)}({use(*getter)}, {subject}, {key})"
        if isinstance(node, ast.HasLabel):
            labels = store.labels
            label_id = labels.id_of(node.label)
            label = (
                repr(label_id)
                if label_id is not None
                else f"{use('_label_id', labels.id_of)}({node.label!r})"
            )
            has_label = use("_node_has_label", store.has_label)
            return f"{use('_has_label', _has_label)}({has_label}, {ref(node.subject)}, {label})"
        if isinstance(node, ast.Comparison):
            compare = use("_compare", _compare)
            return f"{compare}({node.op.value!r}, {code(node.left)}, {code(node.right)})"
        if isinstance(node, ast.Not):
            # NOT x is x XOR TRUE in three-valued logic.
            return f"{use('_boolean', _boolean_value)}('XOR', {code(node.operand)}, True)"
        if isinstance(node, ast.BooleanOp):
            boolean = use("_boolean", _boolean_value)
            return f"{boolean}({node.op!r}, {code(node.left)}, {code(node.right)})"
        if isinstance(node, ast.Arithmetic):
            arithmetic = use("_arithmetic", _arithmetic)
            return f"{arithmetic}({node.op!r}, {code(node.left)}, {code(node.right)})"
        raise ReproError(f"cannot evaluate expression {expression!r}")

    return code(expression)

