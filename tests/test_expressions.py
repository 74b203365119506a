"""Unit tests for expression evaluation (Cypher three-valued logic).

Every case goes through the one emitter generated code uses,
``expression_source``, and runs the emitted source over a row; the
expected values are written by hand, so these cases check expressions
independently of any plan."""

import pytest

from repro.cypher import ast, parse
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError
from repro.runtime.expressions import expression_source
from repro.storage import GraphStore

KINDS = {"n": VariableKind.NODE, "r": VariableKind.RELATIONSHIP}


@pytest.fixture
def ctx():
    return GraphStore(), KINDS


def expr(text: str) -> ast.Expression:
    """Parse the WHERE expression of a probe query."""
    query = parse(f"MATCH (n) WHERE {text} RETURN n")
    return query.clauses[0].where


def returned(text: str) -> ast.Expression:
    """Parse the single RETURN item of a probe query."""
    query = parse(f"MATCH (n) RETURN {text} AS x")
    return query.clauses[-1].items[0].expression


def emitted(expression, evaluation, predicate=False):
    """``(fn, names)``: the emitted source as ``fn(row, params)``, reading
    the name ``ref`` was asked for at ``row[i]`` — variables and aggregate
    calls."""
    store, kinds = evaluation
    names: list = []

    def ref(name):
        if name not in names:
            names.append(name)
        return f"_row[{names.index(name)}]"

    env: dict = {}
    code = expression_source(expression, ref, store, kinds, env)
    if predicate:
        code = f"{code} is True"
    return eval(f"lambda _row, _params: {code}", env), names


def evaluate(expression, bound, evaluation, params=()):
    """Run ``expression`` on the row holding ``bound`` (missing names:
    NULL) with the parameter tuple ``params``."""
    fn, names = emitted(expression, evaluation)
    bound = bound or {}
    return fn([bound.get(name) for name in names], params)


def is_true(expression, bound, evaluation) -> bool:
    fn, names = emitted(expression, evaluation, predicate=True)
    return fn([bound.get(name) for name in names], ())


def value(text: str, row=None, ctx=None):
    return evaluate(expr(text), row, ctx or (GraphStore(), {}))


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
    for op in "+-*/%":
        assert value(f"NULL {op} 2 = 1") is None, op
        assert value(f"2 {op} NULL = 1") is None, op


def test_integer_division_truncates_and_float_division_does_not():
    assert evaluate(returned("7 / 2"), {}, (GraphStore(), {})) == 3
    assert evaluate(returned("7 % 3 - 1"), {}, (GraphStore(), {})) == 0
    assert evaluate(returned("7.0 / 2"), {}, (GraphStore(), {})) == 3.5


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
    assert value("NOT 1 = NULL") is None


def test_connectives_evaluate_both_operands():
    """No short circuit: an error on the right side raises even where the
    left side decides the value."""
    for text in (
        "FALSE AND 1 / 0 = 1",
        "TRUE OR 1 % 0 = 1",
        "NULL XOR 1 / 0 = 1",
        "NOT 1 / 0 = 1",
    ):
        with pytest.raises(ReproError):
            value(text)


def test_is_true_only_on_exact_true(ctx):
    assert is_true(expr("TRUE"), {}, ctx)
    assert not is_true(expr("NULL"), {}, ctx)
    assert not is_true(expr("FALSE"), {}, ctx)
    assert not is_true(expr("1 < NULL"), {}, ctx)


# ---------------------------------------------------------------------------
# Entity access
# ---------------------------------------------------------------------------


def test_node_property_access(ctx):
    store, _ = ctx
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 42)
    row = {"n": node}
    assert evaluate(expr("n.v = 42"), row, ctx) is True
    assert evaluate(expr("n.missing = 42"), row, ctx) is None


def test_token_created_after_emission_is_looked_up(ctx):
    """A property key or label unknown when the source is emitted is
    looked up per call, so one created later matches."""
    store, _ = ctx
    node = store.create_node()
    property_fn, property_names = emitted(expr("n.late = 7"), ctx)
    label_fn, label_names = emitted(expr("n:Late"), ctx)
    assert property_fn([node], ()) is None
    assert label_fn([node], ()) is False
    store.set_node_property(node, store.property_keys.get_or_create("late"), 7)
    store.add_label(node, store.labels.get_or_create("Late"))
    assert property_fn([node], ()) is True
    assert label_fn([node], ()) is True


def test_relationship_property_access(ctx):
    store, _ = ctx
    a, b = store.create_node(), store.create_node()
    rel = store.create_relationship(a, b, store.types.get_or_create("T"))
    store.set_relationship_property(
        rel, store.property_keys.get_or_create("w"), 0.5
    )
    row = {"r": rel}
    assert evaluate(expr("r.w = 0.5"), row, ctx) is True
    assert evaluate(returned("type(r)"), row, ctx) == "T"
    assert evaluate(returned("id(r)"), row, ctx) == rel


def test_property_access_on_unbound_is_null(ctx):
    assert evaluate(expr("n.v = 1"), {}, ctx) is None
    assert evaluate(returned("id(n)"), {}, ctx) is None


def test_has_label_predicate(ctx):
    store, _ = ctx
    node = store.create_node([store.labels.get_or_create("P")])
    row = {"n": node}
    assert evaluate(expr("n:P"), row, ctx) is True
    assert evaluate(expr("n:Q"), row, ctx) is False
    assert evaluate(expr("n:P"), {}, ctx) is None
    assert evaluate(returned("labels(n)"), row, ctx) == ["P"]


def test_property_of_value_variable_raises():
    store = GraphStore()
    evaluation = (store, {})  # 'n' has no entity kind
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 1)
    with pytest.raises(ReproError):
        evaluate(expr("n.v = 1"), {"n": node}, evaluation)


# ---------------------------------------------------------------------------
# Parameters and aggregate results
# ---------------------------------------------------------------------------


def test_aggregate_result_is_read_through_ref():
    """``count(x) + 1``: the aggregation reads the call's result where
    ``ref(call)`` says."""
    expression = returned("count(n) + 1")
    call = expression.left
    assert isinstance(call, ast.FunctionCall) and call.is_aggregate
    fn, names = emitted(expression, (GraphStore(), {}))
    assert names == [call]
    assert fn([4], ()) == 5
    assert fn([None], ()) is None


def test_parameter_reads_the_execution_value():
    """A parameter reads ``_params[i]``: the source holds the slot, never
    its value, so one emission serves every execution."""
    query = parse("MATCH (n) WHERE n.v = $k + 1 RETURN n")
    expression = query.clauses[0].where
    parameter = expression.right.left
    assert isinstance(parameter, ast.Parameter)
    store = GraphStore()
    node = store.create_node()
    store.set_node_property(node, store.property_keys.get_or_create("v"), 3)
    evaluation = (store, {"n": VariableKind.NODE})
    params = [None] * (parameter.index + 1)
    params[parameter.index] = 2
    assert evaluate(expression, {"n": node}, evaluation, params) is True
    params[parameter.index] = 5
    assert evaluate(expression, {"n": node}, evaluation, params) is False
    params[parameter.index] = None
    assert evaluate(expression, {"n": node}, evaluation, params) is None
