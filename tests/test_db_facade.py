"""Tests for the GraphDatabase facade and Result object."""

import pytest

from repro import (
    GraphDatabase,
    PathIndexError,
    PlannerHints,
    Result,
    TransactionError,
)


@pytest.fixture
def db():
    return GraphDatabase()


# ---------------------------------------------------------------------------
# Tokens and convenience writes
# ---------------------------------------------------------------------------


def test_token_helpers(db):
    assert db.label("Person") == db.label("Person")
    assert db.relationship_type("KNOWS") == db.relationship_type("KNOWS")
    assert db.property_key("name") == db.property_key("name")


def test_create_node_with_properties(db):
    node = db.create_node(["Person"], {"name": "ada", "age": 36})
    assert db.store.has_label(node, db.label("Person"))
    assert db.store.node_property(node, db.property_key("name")) == "ada"


def test_create_relationship_with_properties(db):
    a, b = db.create_node(), db.create_node()
    rel = db.create_relationship(a, b, "KNOWS", {"since": 1840})
    assert db.store.relationship_property(rel, db.property_key("since")) == 1840


def test_direct_writes_leave_null_properties_unset(db):
    """A NULL map value sets nothing, as in Cypher's CREATE: the store
    holds what the oracle's graph holds after the same CREATE."""
    from tests import oracle

    node = db.create_node(["A"], {"v": None, "w": 1})
    other = db.create_node(["A"], {"v": 2})
    rel = db.create_relationship(node, other, "X", {"v": None, "w": 3})
    assert db.store.node_properties(node) == {db.property_key("w"): 1}
    assert db.store.relationship_properties(rel) == {db.property_key("w"): 3}
    empty = oracle.Graph()
    created = oracle.run(
        empty, "CREATE (:A {v: NULL, w: 1})-[:X {v: NULL, w: 3}]->(:A {v: 2})"
    ).graph
    assert oracle.graph_form(oracle.snapshot(db), empty) == oracle.graph_form(
        created, empty
    )
    text = "MATCH (a:A)-[r:X]->(b) RETURN a.v AS av, a.w AS aw, r.v AS rv, b.v AS bv"
    oracle.check(oracle.run(created, text), oracle.plain_rows(db.execute(text)))


def test_direct_writes_join_open_transaction(db):
    with db.begin() as tx:
        node = db.create_node(["P"])  # joins tx instead of nesting
        # Not yet rolled back or committed; rollback must undo it.
    assert not db.store.node_exists(node)


def test_direct_writes_commit_in_own_transaction(db):
    node = db.create_node(["P"])
    assert db.store.node_exists(node)


def test_label_add_remove_roundtrip(db):
    node = db.create_node()
    db.add_label(node, "X")
    assert db.store.has_label(node, db.label("X"))
    db.remove_label(node, "X")
    assert not db.store.has_label(node, db.label("X"))


# ---------------------------------------------------------------------------
# execute / explain / Result
# ---------------------------------------------------------------------------


def test_execute_returns_result_with_columns(db):
    db.create_node(["P"], {"v": 1})
    result = db.execute("MATCH (n:P) RETURN n, n.v AS v")
    assert isinstance(result, Result)
    assert result.columns == ["n", "v"]
    rows = result.to_list()
    assert rows[0]["v"] == 1
    assert result.count == 1


def test_result_timing_monotonic(db):
    for _ in range(50):
        db.create_node(["P"])
    result = db.execute("MATCH (n:P) RETURN n")
    result.consume()
    assert 0 <= result.time_to_first_result <= result.time_to_last_result


def test_result_drains_exactly_the_remaining_rows(db):
    for v in range(10):
        db.create_node(["P"], {"v": v})
    text = "MATCH (n:P) RETURN n.v AS v ORDER BY v"
    result = db.execute(text)
    head = [next(result), next(result)]
    rest = result.to_list()
    assert [row["v"] for row in head + rest] == list(range(10))
    assert result.count == 10
    assert result.to_list() == [] and result.consume() == 10
    assert 0 <= result.time_to_first_result <= result.time_to_last_result

    result = db.execute(text)
    assert next(result) == {"v": 0}
    assert result.consume() == 10
    assert result.count == 10 and result.to_list() == []


def test_result_empty_query(db):
    result = db.execute("MATCH (n:Nothing) RETURN n")
    assert result.to_list() == []
    assert result.count == 0
    assert result.time_to_last_result >= 0
    assert result.time_to_first_result == result.time_to_last_result


def test_result_plan_description(db):
    db.create_node(["P"])
    result = db.execute("MATCH (n:P) RETURN n")
    text = result.plan_description()
    assert "NodeByLabelScan" in text


def test_explain_does_not_execute(db):
    node = db.create_node(["P"])
    text = db.explain("MATCH (n:P) RETURN n")
    assert "NodeByLabelScan" in text
    # explain of a write must not write.
    db.explain("CREATE (x:Q)")
    assert db.store.statistics.nodes_with_label(db.label("Q")) == 0


def test_write_query_uses_open_transaction(db):
    with db.begin() as tx:
        db.execute("CREATE (x:Q)").consume()
        tx.failure()
    assert db.store.statistics.nodes_with_label(db.label("Q")) == 0


def test_write_query_autocommits_without_transaction(db):
    db.execute("CREATE (x:Q)").consume()
    assert db.store.statistics.nodes_with_label(db.label("Q")) == 1


# ---------------------------------------------------------------------------
# Index management
# ---------------------------------------------------------------------------


def test_create_and_drop_path_index(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "X")
    stats = db.create_path_index("i", "(:A)-[:X]->(:B)")
    assert stats.cardinality == 1
    assert "i" in db.indexes
    db.drop_path_index("i")
    assert "i" not in db.indexes
    with pytest.raises(PathIndexError):
        db.path_index("i")


def test_duplicate_index_name_rejected(db):
    db.create_path_index("i", "(:A)-[:X]->(:B)", populate=False)
    with pytest.raises(PathIndexError):
        db.create_path_index("i", "(:A)-[:X]->(:B)")


def test_relationship_type_index_enables_type_scan(db):
    a, b = db.create_node(), db.create_node()
    db.create_relationship(a, b, "T")
    db.create_relationship_type_index("T")
    assert db.indexes.type_scan_index("T") is not None
    plan_text = db.explain("MATCH (x)-[r:T]->(y) RETURN x")
    assert "RelationshipByTypeScan" in plan_text


def test_size_report_separates_graph_and_indexes(db):
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "X")
    db.create_path_index("i", "(:A)-[:X]->(:B)")
    report = db.size_report()
    assert report.graph_bytes > 0
    assert report.index_bytes == {"i": db.path_index("i").size_on_disk()}
    assert report.total_index_bytes == db.path_index("i").size_on_disk()


def test_flush_cache_forces_cold_accesses(db):
    db.create_node(["A"])
    db.execute("MATCH (n:A) RETURN n").consume()
    db.flush_cache()
    before = db.page_cache.stats.snapshot()
    db.execute("MATCH (n:A) RETURN n").consume()
    assert db.page_cache.stats.delta_since(before).misses > 0


def test_repr(db):
    db.create_node()
    text = repr(db)
    assert "nodes=1" in text
