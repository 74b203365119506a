"""A path index under anchored prefix seeks (§5.1.2), from creation to restore.

The graph puts a few selective anchors (:S) in front of a broad
(:A)-[:X]->(:B) layer, so a plan that starts at the anchors and seeks the
index by its first node reads a small slice of a large index. Every forced
plan is checked against the index-free plan, and every mutation against a
fresh traversal of the pattern (``verify_index``).
"""

from repro import GraphDatabase, PlannerHints, QueryService
from repro.db.snapshot import load_snapshot, save_snapshot

ANCHORED_A = 4
B_PER_ANCHORED_A = 3
DECOY_A = 30
ENTRIES = ANCHORED_A * B_PER_ANCHORED_A + DECOY_A


def build_db():
    """Selective anchors (:S) pointing into a broad (:A)-[:X]->(:B) layer."""
    db = GraphDatabase()
    anchors, a_nodes = [], []
    for i in range(ANCHORED_A):
        anchor = db.create_node(["S"], {"i": i})
        a = db.create_node(["A"])
        anchors.append(anchor)
        a_nodes.append(a)
        db.create_relationship(anchor, a, "R")
        for _ in range(B_PER_ANCHORED_A):
            b = db.create_node(["B"])
            db.create_relationship(a, b, "X")
    for _ in range(DECOY_A):  # no anchor reaches these
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        db.create_relationship(a, b, "X")
    db.create_path_index("px", "(:A)-[:X]->(:B)")
    return db, anchors, a_nodes


QUERY = "MATCH (s:S)-[r:R]->(a:A)-[x:X]->(b:B) RETURN s, a, b"
BARE = "MATCH (a:A)-[x:X]->(b:B) RETURN a, b"
FORCED = PlannerHints(
    required_indexes=frozenset({"px"}),
    allowed_indexes=frozenset({"px"}),
    path_index_cost_factor=1e-9,
)
BASELINE = PlannerHints(use_path_indexes=False)


def rows_of(db, query, hints):
    return sorted(map(str, db.execute(query, hints).to_list()))


def x_relationships(db, node_id):
    return [
        rel.id
        for rel in db.store.relationships_of(node_id)
        if db.store.types.name_of(rel.type_id) == "X" and rel.start_node == node_id
    ]


def test_index_is_populated_at_creation():
    db, _, _ = build_db()
    assert db.path_index("px").cardinality == ENTRIES
    assert db.verify_index("px")


def test_full_scan_returns_every_path():
    db, _, a_nodes = build_db()
    entries = list(db.path_index("px").scan())
    assert len(entries) == ENTRIES
    assert entries == sorted(entries)
    starts = {entry[0] for entry in entries}
    assert set(a_nodes) <= starts
    assert len(starts) == ANCHORED_A + DECOY_A


def test_forced_prefix_seek_agrees_with_index_free_plan():
    db, _, _ = build_db()
    assert "PathIndexPrefixSeek" in db.explain(QUERY, FORCED)
    forced = rows_of(db, QUERY, FORCED)
    assert len(forced) == ANCHORED_A * B_PER_ANCHORED_A
    assert forced == rows_of(db, QUERY, BASELINE)


def test_seeks_read_without_writing():
    db, _, _ = build_db()
    first = rows_of(db, QUERY, FORCED)
    assert rows_of(db, QUERY, FORCED) == first
    assert db.path_index("px").cardinality == ENTRIES
    assert db.verify_index("px")


def test_forced_bare_pattern_plans_a_full_scan():
    db, _, _ = build_db()
    assert "PathIndexScan" in db.explain(BARE, FORCED)
    forced = rows_of(db, BARE, FORCED)
    assert len(forced) == ENTRIES
    assert forced == rows_of(db, BARE, BASELINE)


def test_prefix_reads_of_each_start():
    db, anchors, a_nodes = build_db()
    index = db.path_index("px")
    for a in a_nodes:
        entries = list(index.scan_prefix((a,)))
        assert len(entries) == B_PER_ANCHORED_A
        assert all(entry[0] == a for entry in entries)
        assert index.count_prefix((a,)) == B_PER_ANCHORED_A
    for anchor in anchors:  # an :S node starts no X path
        assert list(index.scan_prefix((anchor,))) == []
        assert index.count_prefix((anchor,)) == 0


def test_addition_at_any_start_is_indexed():
    db, _, a_nodes = build_db()
    index = db.path_index("px")
    b_new = db.create_node(["B"])
    db.create_relationship(a_nodes[0], b_new, "X")
    assert index.cardinality == ENTRIES + 1
    decoy_a = db.create_node(["A"])
    decoy_b = db.create_node(["B"])
    db.create_relationship(decoy_a, decoy_b, "X")
    assert index.cardinality == ENTRIES + 2
    assert db.verify_index("px")


def test_relationship_deletion_removes_one_entry():
    db, _, a_nodes = build_db()
    index = db.path_index("px")
    db.delete_relationship(x_relationships(db, a_nodes[0])[0])
    assert index.cardinality == ENTRIES - 1
    assert db.verify_index("px")


def test_results_stay_correct_after_mutation():
    db, _, a_nodes = build_db()
    rows_of(db, QUERY, FORCED)
    b_new = db.create_node(["B"])
    db.create_relationship(a_nodes[1], b_new, "X")
    forced = rows_of(db, QUERY, FORCED)
    assert len(forced) == ANCHORED_A * B_PER_ANCHORED_A + 1
    assert forced == rows_of(db, QUERY, BASELINE)


def test_deleted_start_leaves_the_index():
    db, _, a_nodes = build_db()
    victim = a_nodes[0]
    with db.begin() as tx:
        for rel in db.store.relationships_of(victim):
            tx.delete_relationship(rel.id)
        tx.delete_node(victim)
        tx.success()
    index = db.path_index("px")
    assert index.cardinality == ENTRIES - B_PER_ANCHORED_A
    assert index.count_prefix((victim,)) == 0
    forced = rows_of(db, QUERY, FORCED)
    assert len(forced) == (ANCHORED_A - 1) * B_PER_ANCHORED_A
    assert forced == rows_of(db, QUERY, BASELINE)
    assert db.verify_index("px")


def test_snapshot_roundtrip_keeps_entries_and_seek(tmp_path):
    db, _, _ = build_db()
    save_snapshot(db, tmp_path / "snap")
    restored = load_snapshot(tmp_path / "snap")
    index = restored.path_index("px")
    assert index.cardinality == ENTRIES
    assert list(index.scan()) == list(db.path_index("px").scan())
    assert "PathIndexPrefixSeek" in restored.explain(QUERY, FORCED)
    assert rows_of(restored, QUERY, FORCED) == rows_of(db, QUERY, BASELINE)
    assert restored.verify_index("px")


def test_served_read_seeks_the_index():
    """A read served by ``QueryService`` runs against a snapshot; the forced
    seek there answers exactly as the embedded read does."""
    db, _, _ = build_db()
    embedded = rows_of(db, QUERY, FORCED)
    with QueryService(db) as service:
        for _ in range(3):
            outcome = service.execute(QUERY, FORCED)
            assert sorted(map(str, outcome.rows)) == embedded
    assert db.path_index("px").cardinality == ENTRIES
