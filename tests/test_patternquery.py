"""Tests for the internal pattern queries (Algorithms 1/2 substrate): a
pattern is a Cypher text, planned and cached like any other, and its
anchored runs are checked against the brute-force oracle on that text."""

import pytest

from repro import GraphDatabase, PlannerHints
from repro.cypher.semantics import VariableKind
from repro.db.patternquery import (
    Anchor,
    NodeAnchor,
    PatternQueries,
    anchors_for_relationship,
    entry_variables,
    pattern_text,
)
from repro.pathindex.pattern import PathPattern

from tests import oracle
from tests.engines import CHUNK_SIZES, pin_chunk


@pytest.fixture
def db():
    db = GraphDatabase()
    for _ in range(3):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        c = db.create_node(["C"])
        db.create_relationship(a, b, "X")
        db.create_relationship(c, b, "Y")  # pattern reads (b)<-[:Y]-(c)
    return db


PATTERN = PathPattern.parse("(:A)-[:X]->(:B)<-[:Y]-(:C)")


def oracle_entries(db, pattern, anchor=None):
    """The oracle's answer to the pattern's text, through ``anchor``."""
    answer = oracle.run(oracle.snapshot(db), pattern_text(pattern))
    entries = [tuple(row) for row in answer.rows]
    if anchor is None:
        return entries
    bound = anchor.bound_variables()
    names = entry_variables(pattern)
    return [
        entry
        for entry in entries
        if all(entry[names.index(name)] == value for name, value in bound.items())
    ]


def test_entry_variables_order():
    assert entry_variables(PATTERN) == ["n0", "r0", "n1", "r1", "n2"]


def test_pattern_text_returns_the_entry_variables():
    assert pattern_text(PATTERN) == (
        "MATCH (n0:A)-[r0:X]->(n1:B)<-[r1:Y]-(n2:C) RETURN n0, r0, n1, r1, n2"
    )
    loose = PathPattern.parse("()-[]->(:`Match`)<-[:`a b`]-(:C)")
    assert pattern_text(loose) == (
        "MATCH (n0)-[r0]->(n1:`Match`)<-[r1:`a b`]-(n2:C) RETURN n0, r0, n1, r1, n2"
    )


def test_pattern_query_structure(db):
    cached = PatternQueries(db.store, db.indexes).prepare(PATTERN)
    ((part, _),) = cached.planned_parts
    graph = part.query_graph
    assert set(graph.nodes) == {"n0", "n1", "n2"}
    assert graph.nodes["n0"].labels == frozenset({"A"})
    # The backward step is normalized: (n2) -Y-> (n1).
    rel = graph.relationships["r1"]
    assert (rel.start, rel.end) == ("n2", "n1")
    assert cached.analyzed.variable_kinds["r0"] is VariableKind.RELATIONSHIP
    assert cached.columns == entry_variables(PATTERN)
    assert not graph.arguments


def test_anchor_variables_are_the_plan_arguments(db):
    queries = PatternQueries(db.store, db.indexes)
    for anchor, expected in (
        (Anchor(0, 99, 1, 2), {"n0", "r0", "n1"}),
        (NodeAnchor(2, 7), {"n2"}),
    ):
        ((part, _),) = queries.prepare(PATTERN, anchor).planned_parts
        assert part.query_graph.arguments == expected


def test_unanchored_query_finds_all_occurrences(db):
    entries = list(db.maintainer.queries.run(PATTERN))
    assert len(entries) == 3
    assert sorted(entries) == sorted(oracle_entries(db, PATTERN))


def test_rel_anchor_restricts_to_paths_through_relationship(db):
    rel_id = next(iter(db.store.all_relationships()))
    record = db.store.relationship(rel_id)
    anchor = Anchor(0, rel_id, record.start_node, record.end_node)
    entries = list(db.maintainer.queries.run(PATTERN, anchor))
    assert len(entries) == 1
    assert entries[0][1] == rel_id
    assert entries == oracle_entries(db, PATTERN, anchor)


def test_node_anchor_restricts_to_paths_through_node(db):
    some_b = next(iter(db.store.nodes_with_label(db.label("B"))))
    anchor = NodeAnchor(1, some_b)
    entries = list(db.maintainer.queries.run(PATTERN, anchor))
    assert len(entries) == 1
    assert entries[0][2] == some_b
    assert entries == oracle_entries(db, PATTERN, anchor)


def test_anchored_query_respects_hints(db):
    db.create_path_index("helper", "(:B)<-[:Y]-(:C)")
    rel_id = next(iter(db.store.all_relationships()))
    record = db.store.relationship(rel_id)
    anchor = Anchor(0, rel_id, record.start_node, record.end_node)
    hints = PlannerHints(forbidden_indexes=frozenset({"helper"}))
    queries = db.maintainer.queries
    entries = list(queries.run(PATTERN, anchor, hints))
    assert entries == oracle_entries(db, PATTERN, anchor)
    ((_, plan),) = queries.prepare(PATTERN, anchor, hints).planned_parts
    assert "helper" not in plan.indexes_used


def test_anchors_for_relationship_direction_awareness():
    # The Y step is backwards: data direction C -> B; anchoring a Y rel maps
    # source/target onto the pattern's node positions accordingly.
    anchors = anchors_for_relationship(
        PATTERN,
        rel_id=5,
        type_name="Y",
        start_id=30,  # C-node (data-direction start)
        end_id=20,  # B-node
        start_labels=frozenset({"C"}),
        end_labels=frozenset({"B"}),
    )
    assert anchors == [Anchor(position=1, rel_id=5, source_id=20, target_id=30)]


def test_anchors_for_relationship_multiple_positions():
    pattern = PathPattern.parse("(:A)-[:X]->(:A)-[:X]->(:A)")
    anchors = anchors_for_relationship(
        pattern,
        rel_id=1,
        type_name="X",
        start_id=10,
        end_id=11,
        start_labels=frozenset({"A"}),
        end_labels=frozenset({"A"}),
    )
    assert [anchor.position for anchor in anchors] == [0, 1]


def test_anchors_for_non_matching_relationship():
    anchors = anchors_for_relationship(
        PATTERN,
        rel_id=1,
        type_name="Z",
        start_id=1,
        end_id=2,
        start_labels=frozenset({"A"}),
        end_labels=frozenset({"B"}),
    )
    assert anchors == []


# ---------------------------------------------------------------------------
# Cached pattern queries: plan once per shape, bind identifiers per anchor
# ---------------------------------------------------------------------------


def x_anchors(db):
    for rel_id in db.store.all_relationships():
        record = db.store.relationship(rel_id)
        if db.store.types.name_of(record.type_id) == "X":
            yield Anchor(0, rel_id, record.start_node, record.end_node)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_prepared_query_is_shared_by_anchors_of_one_position(db, chunk, monkeypatch):
    pin_chunk(monkeypatch, chunk)
    queries = PatternQueries(db.store, db.indexes)
    anchors = list(x_anchors(db))
    assert len(anchors) == 3
    prepared = queries.prepare(PATTERN, anchors[0])
    for anchor in anchors:
        assert queries.prepare(PATTERN, anchor) is prepared
        expected = oracle_entries(db, PATTERN, anchor)
        assert list(queries.run(PATTERN, anchor)) == expected
        assert len(expected) == 1 and expected[0][1] == anchor.rel_id
    cache = queries.plan_cache
    assert (cache.misses, len(cache)) == (1, 1)
    assert cache.hits == 2 * len(anchors)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_prepared_unanchored_query_equals_oracle(db, chunk, monkeypatch):
    pin_chunk(monkeypatch, chunk)
    queries = PatternQueries(db.store, db.indexes)
    expected = sorted(oracle_entries(db, PATTERN))
    assert sorted(queries.run(PATTERN)) == expected
    assert sorted(queries.run(PATTERN)) == expected
    assert len(expected) == 3 and queries.plan_cache.hits == 1


def test_key_separates_anchor_kind_position_and_hints(db):
    queries = PatternQueries(db.store, db.indexes)
    rel = next(x_anchors(db))
    some_b = next(iter(db.store.nodes_with_label(db.label("B"))))
    forbidding = PlannerHints(forbidden_indexes=frozenset({"helper"}))
    shapes = [
        (None, None),
        (rel, None),
        (rel, forbidding),
        (NodeAnchor(1, some_b), None),
        (NodeAnchor(0, rel.source_id), None),
    ]
    prepared = [queries.prepare(PATTERN, anchor, hints) for anchor, hints in shapes]
    assert len({id(entry) for entry in prepared}) == len(shapes)
    assert queries.plan_cache.misses == len(shapes)
    # Equal hints built separately are the same key.
    again = PlannerHints(forbidden_indexes=frozenset({"helper"}))
    assert queries.prepare(PATTERN, rel, again) is prepared[2]
    # The argument set follows the anchor kind.
    assert prepared[1].planned_parts[0][0].query_graph.arguments == {"n0", "r0", "n1"}
    assert prepared[3].planned_parts[0][0].query_graph.arguments == {"n1"}


def test_prepared_entries_see_later_writes(db):
    queries = PatternQueries(db.store, db.indexes)
    assert len(list(queries.run(PATTERN))) == 3
    # One more A into an existing B: 1 node in 9 and 1 relationship in 6,
    # below the 25 % drift that would re-plan.
    a = db.create_node(["A"])
    b = next(iter(db.store.nodes_with_label(db.label("B"))))
    rel = db.create_relationship(a, b, "X")
    assert len(list(queries.run(PATTERN))) == 4
    assert queries.plan_cache.hits == 1
    anchor = Anchor(0, rel, a, b)
    assert list(queries.run(PATTERN, anchor)) == oracle_entries(db, PATTERN, anchor)


def test_database_routes_algorithm_2_and_verify_through_the_cache(db):
    cache = db.maintenance_plan_cache
    db.create_path_index("whole", "(:A)-[:X]->(:B)<-[:Y]-(:C)")
    assert cache.misses == 1  # Algorithm 2, `whole` forbidden
    assert db.verify_index("whole") and db.verify_index("whole")
    assert (cache.misses, cache.hits) == (2, 1)
    assert (db.plan_cache.hits, db.plan_cache.misses) == (0, 0)


# ---------------------------------------------------------------------------
# Golden plans: Algorithm 1's anchored queries for perfbench's Full index
# ---------------------------------------------------------------------------

FULL = "(:A)-[:X]->(:A)-[:X]->(:A)-[:Y]->(:B)-[:X]->(:A)"


def golden_db():
    """Four copies of a Full path plus noise, and write_maintain's three
    indexes; returns the database and each path's relationships with their
    endpoints, in pattern order."""
    db = GraphDatabase()
    paths = []
    for _ in range(4):
        a, b, c, e = (db.create_node(["A"]) for _ in range(4))
        d = db.create_node(["B"])
        paths.append(
            [
                (db.create_relationship(start, end, kind), start, end)
                for start, end, kind in ((a, b, "X"), (b, c, "X"), (c, d, "Y"), (d, e, "X"))
            ]
        )
        for _ in range(3):
            db.create_relationship(a, db.create_node(["A"]), "X")
            db.create_relationship(db.create_node(["A"]), d, "Y")
    db.create_path_index("Sub7", "(:A)-[:Y]->(:B)")
    db.create_path_index("Sub4", "(:A)-[:X]->(:A)-[:Y]->(:B)")
    db.create_path_index("Full", FULL)
    return db, paths


PROJECTION = "Projection(n0, r0, n1, r1, n2, r2, n3, r3, n4)"
SUB4_SCAN = """\
Projection(n0, r0, n1, r1, n2, r2, n3, r3, n4)  [card≈0, cost≈0]
  Expand(All)((n3)-[r3:X]->(n4))  [card≈0, cost≈0]
    Expand(All)((n1)<-[r0:X]-(n0))  [card≈0, cost≈0]
      PathIndexScan(Sub4: n1, r1, n2, r2, n3)  [card≈0, cost≈0]"""
GOLDEN = {
    0: f"""\
{PROJECTION}  [card≈0, cost≈2]
  Expand(All)((n3)-[r3:X]->(n4))  [card≈0, cost≈2]
    Expand(All)((n2)-[r2:Y]->(n3))  [card≈0, cost≈2]
      Expand(All)((n1)-[r1:X]->(n2))  [card≈0, cost≈2]
        Argument(n0, n1, r0)  [card≈1, cost≈0]""",
    1: SUB4_SCAN,
    2: SUB4_SCAN,
    3: f"""\
{PROJECTION}  [card≈0, cost≈2]
  Expand(All)((n1)<-[r0:X]-(n0))  [card≈0, cost≈2]
    Expand(All)((n2)<-[r1:X]-(n1))  [card≈0, cost≈2]
      Expand(All)((n3)<-[r2:Y]-(n2))  [card≈0, cost≈2]
        Argument(n3, n4, r3)  [card≈1, cost≈0]""",
}
"""The plans the hand-built pattern query graph got before pattern queries
became texts (its projection rendered ``n0 AS n0``)."""


@pytest.mark.parametrize("position", sorted(GOLDEN))
def test_algorithm_1_plans_for_full_are_pinned(position):
    db, paths = golden_db()
    pattern = db.path_index("Full").pattern
    hints = PlannerHints().forbidding("Full")  # Full is the index updated
    queries = db.maintainer.queries
    for path in paths:
        rel, start, end = path[position]
        anchor = Anchor.at(pattern, position, rel, start, end)
        plan = queries.prepare(pattern, anchor, hints).planned_parts[0][1]
        assert plan.render() == GOLDEN[position]
        assert "Full" not in plan.indexes_used
        entry = (path[0][1],) + tuple(x for rel, _, end in path for x in (rel, end))
        assert list(queries.run(pattern, anchor, hints)) == [entry]
        assert oracle_entries(db, pattern, anchor) == [entry]
    # This position's plan, and the three index builds before it.
    assert queries.plan_cache.misses == 1 + 3
