"""Tests for the internal pattern-query machinery (Algorithms 1/2 substrate)."""

import pytest

from repro import GraphDatabase, PlannerHints
from repro.cypher.semantics import VariableKind
from repro.db import patternquery
from repro.db.patternquery import (
    Anchor,
    NodeAnchor,
    PatternQueries,
    anchors_for_relationship,
    build_pattern_part,
    entry_variables,
    run_pattern_query,
)
from repro.pathindex.pattern import PathPattern

from tests.engines import ENGINES


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


def test_entry_variables_order():
    assert entry_variables(PATTERN) == ["n0", "r0", "n1", "r1", "n2"]


def test_build_pattern_part_structure():
    part, kinds = build_pattern_part(PATTERN)
    graph = part.query_graph
    assert set(graph.nodes) == {"n0", "n1", "n2"}
    assert graph.nodes["n0"].labels == frozenset({"A"})
    # The backward step is normalized: (n2) -Y-> (n1).
    rel = graph.relationships["r1"]
    assert (rel.start, rel.end) == ("n2", "n1")
    assert kinds["r0"] is VariableKind.RELATIONSHIP
    assert not graph.arguments


def test_build_pattern_part_with_anchor_arguments():
    part, _ = build_pattern_part(PATTERN, Anchor(0, 99, 1, 2))
    assert part.query_graph.arguments == frozenset({"n0", "r0", "n1"})
    part, _ = build_pattern_part(PATTERN, NodeAnchor(2, 7))
    assert part.query_graph.arguments == frozenset({"n2"})


def test_unanchored_query_finds_all_occurrences(db):
    entries, _ = run_pattern_query(db.store, db.indexes, PATTERN)
    assert len(list(entries)) == 3


def test_rel_anchor_restricts_to_paths_through_relationship(db):
    rel_id = next(iter(db.store.all_relationships()))
    record = db.store.relationship(rel_id)
    anchor = Anchor(0, rel_id, record.start_node, record.end_node)
    entries = list(run_pattern_query(db.store, db.indexes, PATTERN, anchor)[0])
    assert len(entries) == 1
    assert entries[0][1] == rel_id


def test_node_anchor_restricts_to_paths_through_node(db):
    some_b = next(iter(db.store.nodes_with_label(db.label("B"))))
    anchor = NodeAnchor(1, some_b)
    entries = list(run_pattern_query(db.store, db.indexes, PATTERN, anchor)[0])
    assert len(entries) == 1
    assert entries[0][2] == some_b


def test_anchored_query_respects_hints(db):
    db.create_path_index("helper", "(:B)<-[:Y]-(:C)".replace("<-", "<-"))
    rel_id = next(iter(db.store.all_relationships()))
    record = db.store.relationship(rel_id)
    anchor = Anchor(0, rel_id, record.start_node, record.end_node)
    hints = PlannerHints(forbidden_indexes=frozenset({"helper"}))
    entries = list(
        run_pattern_query(db.store, db.indexes, PATTERN, anchor, hints)[0]
    )
    assert len(entries) == 1


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
# Prepared pattern queries: plan once per shape, bind identifiers per anchor
# ---------------------------------------------------------------------------



def x_anchors(db):
    for rel_id in db.store.all_relationships():
        record = db.store.relationship(rel_id)
        if db.store.types.name_of(record.type_id) == "X":
            yield Anchor(0, rel_id, record.start_node, record.end_node)


@pytest.mark.parametrize("engine", ENGINES)
def test_prepared_query_is_shared_by_anchors_of_one_position(db, engine, monkeypatch):
    monkeypatch.setattr(patternquery, "ENGINE", engine)
    queries = PatternQueries(db.store, db.indexes)
    anchors = list(x_anchors(db))
    assert len(anchors) == 3
    prepared = queries.prepare(PATTERN, anchors[0])
    for anchor in anchors:
        assert queries.prepare(PATTERN, anchor) is prepared
        oracle = list(run_pattern_query(db.store, db.indexes, PATTERN, anchor)[0])
        assert list(queries.run(PATTERN, anchor)) == oracle
        assert len(oracle) == 1 and oracle[0][1] == anchor.rel_id
    cache = queries.plan_cache
    assert (cache.misses, len(cache)) == (1, 1)
    assert cache.hits == 2 * len(anchors)


@pytest.mark.parametrize("engine", ENGINES)
def test_prepared_unanchored_query_equals_oracle(db, engine, monkeypatch):
    monkeypatch.setattr(patternquery, "ENGINE", engine)
    queries = PatternQueries(db.store, db.indexes)
    oracle = sorted(run_pattern_query(db.store, db.indexes, PATTERN)[0])
    assert sorted(queries.run(PATTERN)) == oracle
    assert sorted(queries.run(PATTERN)) == oracle
    assert len(oracle) == 3 and queries.plan_cache.hits == 1


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
    assert list(queries.run(PATTERN, Anchor(0, rel, a, b))) == [
        next(entry for entry in queries.run(PATTERN) if entry[1] == rel)
    ]


def test_database_routes_algorithm_2_and_verify_through_the_cache(db):
    cache = db.maintenance_plan_cache
    db.create_path_index("whole", "(:A)-[:X]->(:B)<-[:Y]-(:C)")
    assert cache.misses == 1  # Algorithm 2, `whole` forbidden
    assert db.verify_index("whole") and db.verify_index("whole")
    assert (cache.misses, cache.hits) == (2, 1)
    assert (db.plan_cache.hits, db.plan_cache.misses) == (0, 0)
