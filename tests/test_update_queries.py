"""Regression tests for write-query semantics (MATCH + CREATE/DELETE +
RETURN): created variables must be visible to the projection, and MATCH-bound
variables must be *reused*, never re-created."""

import pytest

from repro import GraphDatabase

from tests.engines import CHUNK_SIZES, execute
from tests.test_query_execution import motivation_db


@pytest.fixture
def db():
    return GraphDatabase()


def test_create_reuses_match_bound_node(db):
    """Regression: `MATCH (x) CREATE (x)-[r]->(m)` once re-created x."""
    a = db.create_node(["A"], {"name": "ada"})
    rows = db.execute(
        "MATCH (x:A) CREATE (x)-[r:S]->(m:M) RETURN x.name AS n, m"
    ).to_list()
    assert rows == [{"n": "ada", "m": a + 1}]
    # Exactly one node was created (m), and the relationship starts at x.
    assert db.store.statistics.node_count == 2
    (rel_id,) = list(db.store.all_relationships())
    record = db.store.relationship(rel_id)
    assert (record.start_node, record.end_node) == (a, a + 1)


def test_create_per_matched_row(db):
    for i in range(3):
        db.create_node(["A"], {"i": i})
    db.execute("MATCH (x:A) CREATE (x)-[r:TAG]->(t:T)").consume()
    assert db.store.statistics.nodes_with_label(db.label("T")) == 3
    assert db.store.statistics.rels_with_type(db.relationship_type("TAG")) == 3


def test_return_projects_after_updates(db):
    rows = db.execute(
        "CREATE (a:P {v: 2})-[r:K]->(b:P {v: 3}) RETURN a.v + b.v AS s"
    ).to_list()
    assert rows == [{"s": 5}]


def test_delete_then_return_remaining(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    rel = db.create_relationship(a, b, "R")
    rows = db.execute("MATCH (x:A)-[r:R]->(y:B) DELETE r RETURN x, y").to_list()
    assert rows == [{"x": a, "y": b}]
    assert db.store.statistics.relationship_count == 0


def test_update_query_with_order_and_limit(db):
    for value in (3, 1, 2):
        db.create_node(["A"], {"v": value})
    rows = db.execute(
        "MATCH (x:A) CREATE (x)-[r:TAG]->(t:T) "
        "RETURN x.v AS v ORDER BY x.v DESC LIMIT 2"
    ).to_list()
    assert [row["v"] for row in rows] == [3, 2]
    assert db.store.statistics.nodes_with_label(db.label("T")) == 3


def test_update_query_distinct(db):
    for _ in range(2):
        db.create_node(["A"], {"g": 1})
    rows = db.execute(
        "MATCH (x:A) CREATE (x)-[r:TAG]->(t:T) RETURN DISTINCT x.g AS g"
    ).to_list()
    assert rows == [{"g": 1}]


def test_create_indexes_maintained_through_cypher_writes(db):
    db.create_path_index("ix", "(:A)-[:R]->(:B)", populate=False)
    db.execute("CREATE (a:A)-[r:R]->(b:B)").consume()
    assert db.path_index("ix").cardinality == 1
    db.execute("MATCH (a:A)-[r:R]->(b:B) DELETE r").consume()
    assert db.path_index("ix").cardinality == 0
    assert db.verify_index("ix")


def test_with_boundary_then_create(db):
    a = db.create_node(["A"], {"name": "x"})
    db.execute(
        "MATCH (x:A) WITH x CREATE (x)-[r:OWNS]->(thing:Thing)"
    ).consume()
    assert db.store.statistics.nodes_with_label(db.label("Thing")) == 1
    (rel_id,) = list(db.store.all_relationships())
    assert db.store.relationship(rel_id).start_node == a


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize(
    "query, expected",
    [
        (
            "MATCH (a:A) CREATE (a)-[:R]->(b:B) RETURN count(*) AS c",
            [{"c": 2}],
        ),
        (
            "MATCH (a:A) CREATE (a)-[:R]->(b:B) WITH a WHERE a.v = 1 "
            "RETURN a.v AS v",
            [{"v": 1}],
        ),
        (
            "MATCH (a:A) CREATE (b:C) RETURN DISTINCT labels(b) AS l",
            [{"l": ["C"]}],
        ),
    ],
)
def test_update_part_boundary_is_planned_like_a_read(chunk, query, expected):
    """An update part's aggregation, projection WHERE and DISTINCT run over
    its written rows, as a read part's run over its matched rows."""
    db = motivation_db()
    assert execute(db, query, chunk=chunk).to_list() == expected


@pytest.mark.parametrize(
    "text",
    [
        "MATCH (a:B) DETACH DELETE a",
        "MATCH (a:B) CREATE (a)-[:Z]->(c:C)",
        "CREATE (c:C)",
        "MATCH (a:B) WITH a CREATE (c:C {v: a.v})",
    ],
)
def test_a_write_without_return_returns_no_rows(text):
    db = GraphDatabase()
    for v in (1, 2):
        db.create_node(["B"], {"v": v})
    before = db.store.statistics.node_count
    result = db.execute(text)
    assert (result.columns, result.to_list()) == ([], [])
    assert db.store.statistics.node_count != before  # the write happened


def test_a_null_map_value_leaves_the_property_unset(db):
    db.create_node(["B"], {"v": 1})
    db.create_node(["B"])
    rows = db.execute(
        "MATCH (b:B) CREATE (c:C {v: b.v, w: 2}) RETURN c ORDER BY c"
    ).to_list()
    stored = [db.store.node_properties(row["c"]) for row in rows]
    keys = [{db.store.property_keys.name_of(k): v for k, v in p.items()} for p in stored]
    assert sorted(keys, key=len) == [{"w": 2}, {"v": 1, "w": 2}]
