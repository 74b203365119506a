"""Unit tests for expression evaluation (Cypher three-valued logic).

Every case runs through the one evaluator generated code uses,
``compile_expression``, over a slot row; the expected values are written by
hand, so these cases check expressions independently of any engine."""

import pytest

from repro.cypher import ast, parse
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError
from repro.runtime.expressions import (
    EvaluationContext,
    compile_expression,
    compile_predicate,
)
from repro.storage import GraphStore


@pytest.fixture
def ctx():
    store = GraphStore()
    kinds = {"n": VariableKind.NODE, "r": VariableKind.RELATIONSHIP}
    return store, EvaluationContext(store, kinds)


def expr(text: str) -> ast.Expression:
    """Parse the WHERE expression of a probe query."""
    query = parse(f"MATCH (n) WHERE {text} RETURN n")
    return query.clauses[0].where


def returned(text: str) -> ast.Expression:
    """Parse the single RETURN item of a probe query."""
    query = parse(f"MATCH (n) RETURN {text} AS x")
    return query.clauses[-1].items[0].expression


def slot_row(compiler, expression, evaluation, bound=None, params=None):
    """Compile ``expression`` with ``compiler`` over a slot per name it
    looks up — variables, and parameters or aggregate calls left to slots —
    and run it on the row holding ``bound`` (missing names: NULL)."""
    names: list = []

    def slot_of(name):
        if name not in names:
            names.append(name)
        return names.index(name)

    compiled = compiler(expression, slot_of, evaluation, params)
    bound = bound or {}
    return compiled([bound.get(name) for name in names])


def evaluate(expression, bound, evaluation, params=None):
    return slot_row(compile_expression, expression, evaluation, bound, params)


def is_true(expression, bound, evaluation) -> bool:
    return slot_row(compile_predicate, expression, evaluation, bound)


def value(text: str, row=None, ctx=None):
    evaluation = ctx[1] if ctx else EvaluationContext(GraphStore(), {})
    return evaluate(expr(text), row, evaluation)


# ---------------------------------------------------------------------------
# Literals and arithmetic
# ---------------------------------------------------------------------------


def test_literals():
    assert value("1 = 1") is True
    assert value("TRUE") is True
    assert value("FALSE") is False
    assert value("NULL") is None
    assert value("'a' = 'a'") is True


def test_arithmetic():
    assert value("1 + 2 = 3") is True
    assert value("2 * 3 + 1 = 7") is True
    assert value("7 % 3 = 1") is True
    assert value("6 / 2 = 3") is True
    assert value("1.5 + 1.5 = 3.0") is True
    assert value("-2 + 5 = 3") is True
    assert value("'a' + 'b' = 'ab'") is True


def test_arithmetic_errors():
    with pytest.raises(ReproError):
        value("1 / 0 = 1")
    with pytest.raises(ReproError):
        value("1 % 0 = 1")
    with pytest.raises(ReproError):
        value("1 + 'x' = 2")


def test_arithmetic_with_null_is_null():
    assert value("1 + NULL = 2") is None


# ---------------------------------------------------------------------------
# Comparisons and NULL propagation
# ---------------------------------------------------------------------------


def test_comparison_operators():
    assert value("1 < 2") is True
    assert value("2 <= 2") is True
    assert value("3 > 2") is True
    assert value("3 >= 4") is False
    assert value("1 <> 2") is True


def test_null_comparisons_are_null():
    for text in ("NULL = 1", "NULL <> 1", "NULL < 1", "NULL = NULL"):
        assert value(text) is None, text


def test_cross_type_equality_is_false_not_error():
    assert value("1 = 'one'") is False
    assert value("1 <> 'one'") is True
    assert value("TRUE = 1") is False  # booleans are not numbers


def test_cross_type_ordering_is_null():
    assert value("1 < 'a'") is None
    assert value("TRUE < 2") is None


def test_numeric_int_float_comparison():
    assert value("1 = 1.0") is True
    assert value("1 < 1.5") is True


# ---------------------------------------------------------------------------
# Boolean connectives (three-valued)
# ---------------------------------------------------------------------------


def test_and_truth_table():
    assert value("TRUE AND TRUE") is True
    assert value("TRUE AND FALSE") is False
    assert value("FALSE AND NULL") is False  # short-circuit semantics
    assert value("TRUE AND NULL") is None
    assert value("NULL AND NULL") is None


def test_or_truth_table():
    assert value("TRUE OR NULL") is True
    assert value("FALSE OR NULL") is None
    assert value("FALSE OR FALSE") is False


def test_xor_truth_table():
    assert value("TRUE XOR FALSE") is True
    assert value("TRUE XOR TRUE") is False
    assert value("TRUE XOR NULL") is None


def test_not():
    assert value("NOT TRUE") is False
    assert value("NOT NULL") is None
    assert value("NOT (1 = 2)") is True


def test_is_true_only_on_exact_true(ctx):
    store, evaluation = ctx
    assert is_true(expr("TRUE"), {}, evaluation)
    assert not is_true(expr("NULL"), {}, evaluation)
    assert not is_true(expr("FALSE"), {}, evaluation)


# ---------------------------------------------------------------------------
# Entity access
# ---------------------------------------------------------------------------


def test_node_property_access(ctx):
    store, evaluation = ctx
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 42)
    row = {"n": node}
    assert evaluate(expr("n.v = 42"), row, evaluation) is True
    assert evaluate(expr("n.missing = 42"), row, evaluation) is None


def test_relationship_property_access(ctx):
    store, evaluation = ctx
    a, b = store.create_node(), store.create_node()
    rel = store.create_relationship(a, b, store.types.get_or_create("T"))
    store.set_relationship_property(
        rel, store.property_keys.get_or_create("w"), 0.5
    )
    row = {"r": rel}
    assert evaluate(expr("r.w = 0.5"), row, evaluation) is True


def test_property_access_on_unbound_is_null(ctx):
    store, evaluation = ctx
    assert evaluate(expr("n.v = 1"), {}, evaluation) is None


def test_has_label_predicate(ctx):
    store, evaluation = ctx
    node = store.create_node([store.labels.get_or_create("P")])
    row = {"n": node}
    assert evaluate(expr("n:P"), row, evaluation) is True
    assert evaluate(expr("n:Q"), row, evaluation) is False
    assert evaluate(expr("n:P"), {}, evaluation) is None


def test_property_of_value_variable_raises():
    store = GraphStore()
    evaluation = EvaluationContext(store, {})  # 'n' has no entity kind
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 1)
    with pytest.raises(ReproError):
        evaluate(expr("n.v = 1"), {"n": node}, evaluation)


# ---------------------------------------------------------------------------
# Slots: parameters and aggregate results
# ---------------------------------------------------------------------------


def test_aggregate_result_is_read_from_its_slot():
    """``count(x) + 1``: the aggregation operator puts the call's result
    in the slot the call is looked up at."""
    expression = returned("count(n) + 1")
    call = expression.left
    assert isinstance(call, ast.FunctionCall) and call.is_aggregate
    evaluation = EvaluationContext(GraphStore(), {})
    assert evaluate(expression, {call: 4}, evaluation) == 5
    assert evaluate(expression, {call: None}, evaluation) is None


def test_parameter_slot_reads_the_execution_value():
    """A parameter is bound at compile time when the execution's values
    are given, and read from its slot otherwise."""
    query = parse("MATCH (n) WHERE n.v = $k + 1 RETURN n")
    expression = query.clauses[0].where
    parameter = expression.right.left
    assert isinstance(parameter, ast.Parameter)
    store = GraphStore()
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 3)
    evaluation = EvaluationContext(store, {"n": VariableKind.NODE})
    params = [None] * (parameter.index + 1)
    params[parameter.index] = 2
    assert evaluate(expression, {"n": node}, evaluation, params) is True
    assert evaluate(expression, {"n": node, parameter: 2}, evaluation) is True
    assert evaluate(expression, {"n": node, parameter: 5}, evaluation) is False
