"""Integration tests: Cypher queries end-to-end through the pipeline."""

import pytest

from repro import GraphDatabase, PlannerHints

from tests.engines import CHUNK_SIZES, execute

BASELINE = PlannerHints(use_path_indexes=False, use_relationship_type_scan=False)


@pytest.fixture
def db() -> GraphDatabase:
    return GraphDatabase()


def rows(db, query, hints=None):
    return db.execute(query, hints).to_list()


# ---------------------------------------------------------------------------
# Scans and expansion
# ---------------------------------------------------------------------------


def test_match_all_nodes(db):
    ids = [db.create_node() for _ in range(3)]
    assert sorted(r["n"] for r in rows(db, "MATCH (n) RETURN n")) == ids


def test_match_by_label(db):
    a = db.create_node(["Person"])
    db.create_node(["City"])
    assert [r["n"] for r in rows(db, "MATCH (n:Person) RETURN n")] == [a]


def test_match_multiple_labels(db):
    both = db.create_node(["Person", "Admin"])
    db.create_node(["Person"])
    assert [r["n"] for r in rows(db, "MATCH (n:Person:Admin) RETURN n")] == [both]


def test_directed_expand(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "R")
    assert rows(db, "MATCH (x:A)-[r:R]->(y:B) RETURN x, y") == [{"x": a, "y": b}]
    assert rows(db, "MATCH (x:B)-[r:R]->(y:A) RETURN x, y") == []
    assert rows(db, "MATCH (x:B)<-[r:R]-(y:A) RETURN x, y") == [{"x": b, "y": a}]


def test_undirected_match_finds_both_orientations(db):
    a, b = db.create_node(["A"]), db.create_node(["A"])
    db.create_relationship(a, b, "R")
    result = rows(db, "MATCH (x:A)-[r:R]-(y:A) RETURN x, y")
    assert sorted((r["x"], r["y"]) for r in result) == [(a, b), (b, a)]


def test_type_filter_on_expand(db):
    a, b, c = db.create_node(), db.create_node(), db.create_node()
    db.create_relationship(a, b, "KNOWS")
    db.create_relationship(a, c, "LIKES")
    result = rows(db, "MATCH (x)-[r:KNOWS]->(y) RETURN y")
    assert [r["y"] for r in result] == [b]


def test_multi_type_disjunction(db):
    a, b, c = db.create_node(), db.create_node(), db.create_node()
    db.create_relationship(a, b, "KNOWS")
    db.create_relationship(a, c, "LIKES")
    db.create_relationship(b, c, "HATES")
    result = rows(db, "MATCH (x)-[r:KNOWS|LIKES]->(y) RETURN y")
    assert sorted(r["y"] for r in result) == sorted([b, c])


def test_longer_path(db):
    a, b, c = db.create_node(["A"]), db.create_node(["B"]), db.create_node(["C"])
    db.create_relationship(a, b, "R")
    db.create_relationship(b, c, "S")
    result = rows(db, "MATCH (x:A)-[r:R]->(y:B)-[s:S]->(z:C) RETURN x, z")
    assert result == [{"x": a, "z": c}]


def test_unknown_label_and_type_give_empty_results(db):
    a, b = db.create_node(["A"]), db.create_node(["A"])
    db.create_relationship(a, b, "R")
    assert rows(db, "MATCH (n:Nope) RETURN n") == []
    assert rows(db, "MATCH (x)-[r:Nope]->(y) RETURN x") == []


# ---------------------------------------------------------------------------
# Relationship uniqueness (the paper's footnote 2)
# ---------------------------------------------------------------------------


def test_relationship_uniqueness_within_match(db):
    a, b = db.create_node(["A"]), db.create_node(["A"])
    db.create_relationship(a, b, "R")
    # A single relationship cannot be matched by both r1 and r2.
    result = rows(db, "MATCH (x)-[r1:R]->(y)<-[r2:R]-(z) RETURN x, z")
    assert result == []
    # With two parallel relationships it matches both ways.
    db.create_relationship(a, b, "R")
    result = rows(db, "MATCH (x)-[r1:R]->(y)<-[r2:R]-(z) RETURN x, z")
    assert len(result) == 2


def test_self_loop_matches(db):
    a = db.create_node(["A"])
    db.create_relationship(a, a, "R")
    result = rows(db, "MATCH (x:A)-[r:R]->(y:A) RETURN x, y")
    assert result == [{"x": a, "y": a}]


# ---------------------------------------------------------------------------
# WHERE semantics
# ---------------------------------------------------------------------------


def test_property_equality(db):
    a = db.create_node(["P"], {"age": 30})
    db.create_node(["P"], {"age": 31})
    assert [r["n"] for r in rows(db, "MATCH (n:P) WHERE n.age = 30 RETURN n")] == [a]


def test_property_comparisons(db):
    db.create_node(["P"], {"age": 30})
    b = db.create_node(["P"], {"age": 35})
    assert [r["n"] for r in rows(db, "MATCH (n:P) WHERE n.age > 32 RETURN n")] == [b]
    assert len(rows(db, "MATCH (n:P) WHERE n.age >= 30 RETURN n")) == 2
    assert len(rows(db, "MATCH (n:P) WHERE n.age <> 30 RETURN n")) == 1


def test_missing_property_is_null_and_filters_out(db):
    db.create_node(["P"])  # no age
    a = db.create_node(["P"], {"age": 1})
    assert [r["n"] for r in rows(db, "MATCH (n:P) WHERE n.age = 1 RETURN n")] == [a]
    # NULL <> 1 is NULL, not true, so the property-less node never matches.
    assert [r["n"] for r in rows(db, "MATCH (n:P) WHERE n.age <> 1 RETURN n")] == []


def test_cross_variable_predicate(db):
    a = db.create_node(["P"], {"v": 7})
    b = db.create_node(["P"], {"v": 7})
    c = db.create_node(["P"], {"v": 9})
    db.create_relationship(a, b, "R")
    db.create_relationship(a, c, "R")
    result = rows(db, "MATCH (x:P)-[r:R]->(y:P) WHERE x.v = y.v RETURN y")
    assert [r["y"] for r in result] == [b]


def test_boolean_connectives(db):
    db.create_node(["P"], {"a": 1, "b": 1})
    n2 = db.create_node(["P"], {"a": 1, "b": 2})
    result = rows(db, "MATCH (n:P) WHERE n.a = 1 AND NOT n.b = 1 RETURN n")
    assert [r["n"] for r in result] == [n2]
    result = rows(db, "MATCH (n:P) WHERE n.b = 1 OR n.b = 2 RETURN n")
    assert len(result) == 2


def test_where_label_predicate(db):
    a = db.create_node(["P", "Q"])
    db.create_node(["P"])
    assert [r["n"] for r in rows(db, "MATCH (n:P) WHERE n:Q RETURN n")] == [a]


# ---------------------------------------------------------------------------
# Projection boundaries: WITH / RETURN
# ---------------------------------------------------------------------------


def test_with_chains_two_matches(db):
    a, b, c = db.create_node(["A"]), db.create_node(["B"]), db.create_node(["C"])
    db.create_relationship(a, b, "R")
    db.create_relationship(b, c, "S")
    result = rows(
        db, "MATCH (x:A)-[r:R]->(y) WITH y MATCH (y)-[s:S]->(z) RETURN y, z"
    )
    assert result == [{"y": b, "z": c}]


def test_with_where_filters_between_parts(db):
    a = db.create_node(["A"], {"keep": 1})
    b = db.create_node(["A"], {"keep": 0})
    result = rows(db, "MATCH (n:A) WITH n WHERE n.keep = 1 RETURN n")
    assert [r["n"] for r in result] == [a]


def test_paper_figure2_query_shape(db):
    # Two disconnected parts across a WITH boundary (Figure 2).
    a = db.create_node(["A"], {"prop": 5})
    b = db.create_node([], {"prop": 5})
    c = db.create_node()
    db.create_relationship(a, b, "R")
    db.create_relationship(b, a, "T")
    db.create_relationship(b, c, "T")
    s = db.create_node([], {"prop": 1})
    t = db.create_node()
    rel = db.create_relationship(s, t, "U")
    db.execute("MATCH (n) RETURN n").consume()
    query = """
        MATCH (a:A)-[r:R]->(b)
        MATCH (b)-->(a)
        MATCH (b)-->(c)
        WHERE a.prop = b.prop
        WITH a, r
        MATCH (s)-->(t)
        WHERE s.prop = r.prop
        RETURN a, r, s, t
    """
    # r has no prop: s.prop = r.prop is never true.
    assert rows(db, query) == []
    with db.begin() as tx:
        tx.set_relationship_property(rel, db.property_key("x"), 0)
        tx.success()
    db2_rows = rows(
        db,
        query.replace("s.prop = r.prop", "s.prop = 1"),
    )
    assert len(db2_rows) >= 1


def test_return_star_order(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "R")
    result = db.execute("MATCH (x:A)-[r:R]->(y:B) RETURN *")
    assert result.columns == ["x", "r", "y"]


def test_return_alias_and_arithmetic(db):
    db.create_node(["P"], {"v": 10})
    result = rows(db, "MATCH (n:P) RETURN n.v + 5 AS w")
    assert result == [{"w": 15}]


def test_distinct(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "R")
    db.create_relationship(a, b, "R")
    assert len(rows(db, "MATCH (x:A)-[r:R]->(y) RETURN y")) == 2
    assert len(rows(db, "MATCH (x:A)-[r:R]->(y) RETURN DISTINCT y")) == 1


def test_order_by_skip_limit(db):
    for value in (3, 1, 2):
        db.create_node(["P"], {"v": value})
    result = rows(db, "MATCH (n:P) RETURN n.v AS v ORDER BY n.v")
    assert [r["v"] for r in result] == [1, 2, 3]
    result = rows(db, "MATCH (n:P) RETURN n.v AS v ORDER BY n.v DESC SKIP 1 LIMIT 1")
    assert [r["v"] for r in result] == [2]


# ---------------------------------------------------------------------------
# Disconnected patterns (cartesian products)
# ---------------------------------------------------------------------------


def test_cartesian_product_of_components(db):
    a1, a2 = db.create_node(["A"]), db.create_node(["A"])
    b1 = db.create_node(["B"])
    result = rows(db, "MATCH (x:A), (y:B) RETURN x, y")
    assert sorted((r["x"], r["y"]) for r in result) == [(a1, b1), (a2, b1)]


def test_cross_component_predicate(db):
    db.create_node(["A"], {"v": 1})
    a2 = db.create_node(["A"], {"v": 2})
    b1 = db.create_node(["B"], {"v": 2})
    result = rows(db, "MATCH (x:A), (y:B) WHERE x.v = y.v RETURN x, y")
    assert [(r["x"], r["y"]) for r in result] == [(a2, b1)]


# ---------------------------------------------------------------------------
# Writes through Cypher
# ---------------------------------------------------------------------------


def test_create_query(db):
    db.execute("CREATE (a:Person {name: 'alice'})-[r:KNOWS]->(b:Person)").consume()
    assert db.store.statistics.node_count == 2
    assert db.store.statistics.relationship_count == 1
    result = rows(db, "MATCH (a:Person)-[r:KNOWS]->(b:Person) RETURN a.name AS n")
    assert result == [{"n": "alice"}]


def test_create_returns_created_entities(db):
    result = rows(db, "CREATE (a:X {v: 3}) RETURN a.v AS v")
    assert result == [{"v": 3}]


def test_match_delete_relationship(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "R")
    db.execute("MATCH (x:A)-[r:R]->(y:B) DELETE r").consume()
    assert db.store.statistics.relationship_count == 0


def test_detach_delete_node(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "R")
    db.execute("MATCH (x:A) DETACH DELETE x").consume()
    assert not db.store.node_exists(a)
    assert db.store.statistics.relationship_count == 0


def test_match_create_combines(db):
    a = db.create_node(["A"])
    b = db.create_node(["A"])
    db.execute("MATCH (x:A) CREATE (x)-[r:SELF]->(m:Marker)").consume()
    assert db.store.statistics.nodes_with_label(db.label("Marker")) == 2


# ---------------------------------------------------------------------------
# Profile metrics
# ---------------------------------------------------------------------------


def test_max_intermediate_cardinality_reflects_blowup(db):
    # Star: 1 hub, 10 spokes; 2-hop query explodes then filters to nothing.
    hub = db.create_node(["H"])
    for _ in range(10):
        spoke = db.create_node(["S"])
        db.create_relationship(hub, spoke, "R")
    result = db.execute("MATCH (a:S)<-[r1:R]-(h:H)-[r2:R]->(b:S) RETURN a, b")
    count = len(result.to_list())
    assert count == 90  # 10 × 9 ordered pairs
    assert result.max_intermediate_cardinality >= 90


def test_first_and_last_result_timing(db):
    for _ in range(100):
        db.create_node(["P"])
    result = db.execute("MATCH (n:P) RETURN n")
    result.consume()
    assert 0 <= result.time_to_first_result <= result.time_to_last_result


# ---------------------------------------------------------------------------
# Part boundaries: the boundary runs once per part, not per argument row
# ---------------------------------------------------------------------------


def motivation_db() -> GraphDatabase:
    """(:A {v:1})-[:R]->(:B {v:2}) and (:A {v:3})-[:R]->(:B {v:2})."""
    db = GraphDatabase()
    db.execute("CREATE (:A {v: 1})-[:R]->(:B {v: 2})").consume()
    db.execute("CREATE (:A {v: 3})-[:R]->(:B {v: 2})").consume()
    return db


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize(
    "tail, expected",
    [
        ("RETURN count(*) AS n", [{"n": 2}]),
        ("RETURN a.v AS v ORDER BY v DESC", [{"v": 3}, {"v": 1}]),
        ("RETURN a.v AS v ORDER BY v LIMIT 1", [{"v": 1}]),
        ("RETURN DISTINCT b.v AS v", [{"v": 2}]),
    ],
)
def test_second_part_boundary_sees_all_its_rows(chunk, tail, expected):
    """Each of the second part's argument rows matches one path; its
    aggregation, sort, limit and distinct see both paths at once."""
    db = motivation_db()
    query = f"MATCH (a:A) WITH a MATCH (a)-[:R]->(b) {tail}"
    assert execute(db, query, chunk=chunk).to_list() == expected
