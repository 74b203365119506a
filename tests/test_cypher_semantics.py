"""Unit tests for semantic analysis (scoping and variable kinds)."""

import pytest

from repro import GraphDatabase
from repro.cypher import analyze, ast, parse
from repro.cypher.semantics import VariableKind
from repro.errors import CypherSemanticError

from tests import oracle
from tests.engines import agree


def analyzed(text):
    return analyze(parse(text))


def test_variable_kinds_annotated():
    result = analyzed("MATCH (a)-[r:T]->(b) RETURN a, r")
    assert result.variable_kinds["a"] is VariableKind.NODE
    assert result.variable_kinds["r"] is VariableKind.RELATIONSHIP
    assert result.variable_kinds["b"] is VariableKind.NODE


def test_return_star_expands_in_introduction_order():
    result = analyzed("MATCH (b)-[r:T]->(a) RETURN *")
    return_clause = result.query.clauses[-1]
    items = result.projection_items(return_clause)
    assert [item.output_name for item in items] == ["b", "r", "a"]


def test_unknown_variable_in_where_rejected():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a) WHERE b.x = 1 RETURN a")


def test_unknown_variable_in_return_rejected():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a) RETURN b")


def test_with_resets_scope():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a)-->(b) WITH a MATCH (c) RETURN b")
    # But the projected variable stays visible.
    result = analyzed("MATCH (a)-->(b) WITH a MATCH (a)-->(c) RETURN a, c")
    assert result.variable_kinds["c"] is VariableKind.NODE


def test_kind_conflict_rejected():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a)-[a:T]->(b) RETURN a")


def test_relationship_variable_unique_within_pattern():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a)-[r:T]->(b)-[r:T]->(c) RETURN a")


def test_read_query_must_end_with_return():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a) WITH a MATCH (b)")


def test_return_must_be_last():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a) RETURN a MATCH (b) RETURN b")


def test_duplicate_projection_name_rejected():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a)-->(b) RETURN a AS x, b AS x")


def test_create_binds_new_variables():
    result = analyzed("CREATE (a:Person)-[r:KNOWS]->(b:Person)")
    assert result.is_write
    assert result.variable_kinds["a"] is VariableKind.NODE
    assert result.variable_kinds["r"] is VariableKind.RELATIONSHIP


def test_create_after_match_reuses_bound_nodes():
    result = analyzed("MATCH (a:Person) CREATE (a)-[r:KNOWS]->(b:Person)")
    assert result.is_write


def test_create_rejects_relabeling_bound_node():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a:Person) CREATE (a:Admin)-[r:T]->(b)")


def test_create_requires_single_directed_type():
    with pytest.raises(CypherSemanticError):
        analyzed("CREATE (a)-[r]-(b)")
    with pytest.raises(CypherSemanticError):
        analyzed("CREATE (a)-[r:S|T]->(b)")


def test_delete_requires_bound_variable():
    with pytest.raises(CypherSemanticError):
        analyzed("MATCH (a)-[r]->(b) DELETE q")
    result = analyzed("MATCH (a)-[r]->(b) DELETE r")
    assert result.is_write


def test_where_label_predicate_allowed():
    result = analyzed("MATCH (a)-->(b) WHERE a:Person AND a.x <> b.x RETURN a")
    assert result.variable_kinds["a"] is VariableKind.NODE


# A name re-bound to a value by WITH (or, for ORDER BY, by RETURN) is no
# longer a node: reading it as one is rejected rather than taking the value
# as a node id.
VALUE_READ_AS_ENTITY = [
    "MATCH (a:A) WITH a.v - 5 AS a RETURN a.v AS x",
    "MATCH (a:A) RETURN a.v - 5 AS a ORDER BY a.v",
    "MATCH (a:A) WITH a.v AS a RETURN id(a) AS x",
    "MATCH (a:A) WITH a.v AS a RETURN size(labels(a)) AS x",
    "MATCH (a:A)-[r]->(b) WITH r.w AS r RETURN type(r) AS t",
    "MATCH (a:A) WITH a.v AS a WHERE a:A RETURN a",
    "MATCH (a:A) WITH a.v AS a WHERE a.v > 1 RETURN a",
    "MATCH (a:A) WITH a.v AS a DELETE a",
]

VALUES_KEEP_WORKING = [
    "MATCH (a:A) RETURN id(a) AS a",
    "MATCH (a:A) RETURN id(a) AS a ORDER BY a",
    "MATCH (a:A) RETURN id(a) AS a ORDER BY id(a)",
    "MATCH (a:A) WITH a.v AS a RETURN a ORDER BY a",
    "MATCH (a:A) WITH a.v - 5 AS a RETURN a AS x ORDER BY x",
    "MATCH (a:A) WITH a.v AS a RETURN a + 1 AS b, count(a) AS c ORDER BY b",
    "MATCH (a:A) WITH a, a.v AS v RETURN v, a.v AS w ORDER BY a.v",
    "MATCH (a:A)-[r]->(b) RETURN type(r) AS r, id(b) AS b ORDER BY r, b",
]


def _value_graph():
    db = GraphDatabase()
    for v in (5, 7, 1):
        db.execute(f"CREATE (:A {{v: {v}}})").consume()
    db.execute("MATCH (a:A) WHERE a.v = 5 CREATE (a)-[:X {w: 2}]->(:B)").consume()
    return db


@pytest.mark.parametrize("text", VALUE_READ_AS_ENTITY)
def test_value_read_as_entity_rejected(text):
    db = _value_graph()
    with pytest.raises(CypherSemanticError, match="holds a value"):
        analyze(parse(text))
    with pytest.raises(CypherSemanticError):
        db.execute(text).to_list()
    with pytest.raises(oracle.OracleError):
        oracle.run(oracle.snapshot(db), text)


@pytest.mark.parametrize("text", VALUES_KEEP_WORKING)
def test_values_keep_working(text):
    assert agree(_value_graph(), text)
