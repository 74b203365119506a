"""Focused tests for physical operators: path-index operators, skip-scan,
prefix-seek grouping, and the slot layout."""

import sys
import threading

import pytest

from repro import GraphDatabase, PlannerHints
from repro.cypher import analyze, parse
from repro.planner import Planner
from repro.planner.plans import (
    PlanPathIndexFilteredScan,
    PlanPathIndexPrefixSeek,
    PlanPathIndexScan,
)
from repro.querygraph import build_query_parts
from repro.runtime import Executor
from repro.runtime.slots import LAYOUT, SlotLayout, layout_of
from repro.storage import PageCache

from tests.engines import CHUNK_SIZES, execute


# ---------------------------------------------------------------------------
# Slot layout and the part boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_projection_resets_relationship_uniqueness(chunk):
    """A WITH boundary starts a new uniqueness scope: the second MATCH may
    bind the relationship the first one bound."""
    db = GraphDatabase()
    x, y = db.create_node(["X"]), db.create_node(["Y"])
    db.create_relationship(x, y, "R")
    query = (
        "MATCH (x)-[r:R]->(y) WITH x, y "
        "MATCH (x)-[s:R]->(y) RETURN count(*) AS n"
    )
    assert execute(db, query, chunk=chunk).to_list() == [{"n": 1}]


def test_layout_gives_every_bound_created_and_projected_name_a_slot():
    db = GraphDatabase()
    query = (
        "MATCH (a:A)-[r:R]->(b) WITH a, count(b) AS c "
        "CREATE (a)-[w:W]->(n:N {c: c}) RETURN a, w, n, c + 1 AS d"
    )
    analyzed = analyze(parse(query))
    parts = build_query_parts(analyzed)
    planner = Planner(db.store, db.indexes)
    planned = [(part, planner.plan_part(part)) for part in parts]
    layout = SlotLayout.of(planned)
    assert set(layout.slots) == {"a", "r", "b", "c", "w", "n", "d"}
    assert sorted(layout.slots.values()) == list(range(layout.width))


def test_racing_first_executions_build_equal_layouts():
    """First executions racing on one plan each build the layout; they
    build equal ones, and every execution ends up with the one stored."""
    db = GraphDatabase()
    db.execute("CREATE (:A)-[:R]->(:B)").consume()
    cached = db.prepare("MATCH (a:A) WITH a MATCH (a)-[r:R]->(b) RETURN b")
    planned = cached.planned_parts
    holder = planned[0][1].__dict__
    assert SlotLayout.of(planned).slots == SlotLayout.of(planned).slots
    built, seen = [], []
    of = SlotLayout.of

    def counting_of(parts):
        built.append(of(parts))
        return built[-1]

    workers = 8
    barrier = threading.Barrier(workers)

    def first_execution():
        barrier.wait(timeout=10)
        seen.append(layout_of(planned))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            holder.pop(LAYOUT, None)
            built.clear()
            seen.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SlotLayout, "of", staticmethod(counting_of))
                threads = [
                    threading.Thread(target=first_execution) for _ in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
            assert len(seen) == workers and built
            assert all(layout.slots == built[0].slots for layout in built)
            assert all(layout is holder[LAYOUT] for layout in seen)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def find_op(plan, cls):
    if isinstance(plan, cls):
        return plan
    for child in plan.children:
        found = find_op(child, cls)
        if found is not None:
            return found
    return None


def run_forced(db, query, index_name):
    hints = PlannerHints(
        required_indexes=frozenset({index_name}),
        allowed_indexes=frozenset({index_name}),
        path_index_cost_factor=1e-9,
    )
    analyzed = analyze(parse(query))
    (part,) = build_query_parts(analyzed)
    plan = Planner(db.store, db.indexes).plan_part(part, hints)
    executor = Executor(db.store, db.indexes, analyzed.variable_kinds)
    rows, profile = executor.execute([(part, plan)])
    columns = [item.output_name for item in part.projection]
    return plan, [dict(zip(columns, row)) for row in rows], profile


# ---------------------------------------------------------------------------
# PathIndexFilteredScan skip-scan semantics (§5.1.2)
# ---------------------------------------------------------------------------


def build_triangle_db():
    """A-nodes fully X-connected; query a<-x1, x2 with a <> c predicate."""
    db = GraphDatabase()
    nodes = [db.create_node(["A"]) for _ in range(6)]
    for source in nodes:
        for target in nodes:
            if source != target:
                db.create_relationship(source, target, "X")
    db.create_path_index("two", "(:A)-[:X]->(:A)-[:X]->(:A)")
    return db, nodes


def test_filtered_scan_applies_neq_predicate():
    db, nodes = build_triangle_db()
    query = "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A) WHERE a <> c RETURN *"
    plan, rows, _ = run_forced(db, query, "two")
    scan = find_op(plan, PlanPathIndexFilteredScan)
    assert scan is not None
    assert all(row["a"] != row["c"] for row in rows)
    # 6 choices for a, 5 for b, 4 for c (a<>b<>c and a<>c via predicate).
    assert len(rows) == 6 * 5 * 4


def test_filtered_scan_skip_scan_reduces_page_touches():
    """The §5.1.2 optimization: a <> c violations skip whole prefix ranges."""
    db, nodes = build_triangle_db()
    query = "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A) WHERE a <> c RETURN *"
    # Count index-entry work indirectly via the page cache: the skip-scan
    # must touch no *more* pages than a plain full scan of the index.
    db.flush_cache()
    before = db.page_cache.stats.snapshot()
    _, rows, _ = run_forced(db, query, "two")
    skip_misses = db.page_cache.stats.delta_since(before).misses
    db.flush_cache()
    before = db.page_cache.stats.snapshot()
    list(db.path_index("two").scan())
    scan_misses = db.page_cache.stats.delta_since(before).misses
    assert skip_misses <= scan_misses * 3  # same order; no blow-up
    assert len(rows) == 120


def test_filtered_scan_property_predicate_residual():
    db = GraphDatabase()
    for value in range(4):
        a = db.create_node(["A"], {"v": value})
        b = db.create_node(["A"])
        db.create_relationship(a, b, "X")
    db.create_path_index("one", "(:A)-[:X]->(:A)")
    query = "MATCH (a:A)-[r:X]->(b:A) WHERE a.v > 1 RETURN *"
    plan, rows, _ = run_forced(db, query, "one")
    assert find_op(plan, PlanPathIndexFilteredScan) is not None
    assert len(rows) == 2


def test_scan_rejects_duplicate_relationships_within_entry():
    # Self-loop: pattern (:A)-[:X]->(:A)-[:X]->(:A) over a single loop edge
    # would need to use the same relationship twice — forbidden.
    db = GraphDatabase()
    a = db.create_node(["A"])
    db.create_relationship(a, a, "X")
    db.create_path_index("two", "(:A)-[:X]->(:A)-[:X]->(:A)")
    assert db.path_index("two").cardinality == 0
    b = db.create_node(["A"])
    db.create_relationship(a, b, "X")
    # loop then out-edge (and out-edge cannot precede the loop: b has no X).
    assert db.path_index("two").cardinality == 1


# ---------------------------------------------------------------------------
# PathIndexPrefixSeek (§5.1.3)
# ---------------------------------------------------------------------------


def build_prefix_db():
    db = GraphDatabase()
    anchor = db.create_node(["S"])
    b_nodes = []
    for i in range(3):
        b = db.create_node(["A"])
        b_nodes.append(b)
        db.create_relationship(anchor, b, "R")
        for _ in range(4):
            c = db.create_node(["B"])
            db.create_relationship(b, c, "X")
    # Unreachable (:A)-[:X]->(:B) pairs inflate the index.
    for _ in range(50):
        b = db.create_node(["A"])
        c = db.create_node(["B"])
        db.create_relationship(b, c, "X")
    db.create_path_index("sub", "(:A)-[:X]->(:B)")
    return db, anchor


def test_prefix_seek_groups_and_combines():
    db, anchor = build_prefix_db()
    query = "MATCH (s:S)-[r:R]->(b:A)-[x:X]->(c:B) RETURN *"
    plan, rows, profile = run_forced(db, query, "sub")
    seek = find_op(plan, PlanPathIndexPrefixSeek)
    assert seek is not None
    assert seek.prefix_length == 1
    assert len(rows) == 12
    # The seek only reads matching prefixes: it produces exactly the 12
    # combined rows, never the 50 decoy entries.
    per_op = dict(profile.rows_by_operator())
    seek_rows = [
        count
        for description, count in per_op.items()
        if description.startswith("PathIndexPrefixSeek")
    ]
    assert seek_rows == [12]


def test_prefix_seek_respects_relationship_uniqueness():
    db = GraphDatabase()
    a = db.create_node(["A"])
    b = db.create_node(["A"])
    db.create_relationship(a, b, "X")
    db.create_path_index("sub", "(:A)-[:X]->(:A)")
    # (a)-[r:X]->(b)-[s:X]->(c): only one X relationship exists, so the seek
    # for s must not re-use r.
    query = "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A) RETURN *"
    plan, rows, _ = run_forced(db, query, "sub")
    assert rows == []


# ---------------------------------------------------------------------------
# Plain scans bind consistently
# ---------------------------------------------------------------------------


def test_scan_consistency_with_repeated_variable():
    # Query revisits node a: (a)-[x]->(b)<-[y]-(a); index on the pattern must
    # only return entries whose first and third identifiers coincide.
    db = GraphDatabase()
    a1, a2 = db.create_node(["A"]), db.create_node(["A"])
    b = db.create_node(["B"])
    db.create_relationship(a1, b, "X")
    db.create_relationship(a1, b, "Y")
    db.create_relationship(a2, b, "Y")  # would match only with a2 at slot 3
    db.create_path_index("diamond", "(:A)-[:X]->(:B)<-[:Y]-(:A)")
    query = "MATCH (a:A)-[x:X]->(b:B)<-[y:Y]-(a) RETURN *"
    plan, rows, _ = run_forced(db, query, "diamond")
    assert len(rows) == 1
    assert rows[0]["a"] == a1


# ---------------------------------------------------------------------------
# Known ids bound the scan: id(v) = k literals and argument-bound variables
# ---------------------------------------------------------------------------



def build_fan_db():
    """Four (:A) sources with three X-targets each, indexed on one step."""
    db = GraphDatabase()
    sources = [db.create_node(["A"]) for _ in range(4)]
    rels = {}
    for source in sources:
        for _ in range(3):
            target = db.create_node(["A"])
            rels[db.create_relationship(source, target, "X")] = (source, target)
    db.create_path_index("one", "(:A)-[:X]->(:A)")
    return db, sources, rels


def traced_seeks(db, name, monkeypatch):
    """Record ``(prefix, lower)`` of every seek a scan issues on ``name``."""
    index = db.path_index(name)
    calls = []
    original = index.seeker

    def seeker(prefix=()):
        seek = original(prefix)

        def traced(lower):
            calls.append((tuple(prefix), tuple(lower)))
            return seek(lower)

        return traced

    monkeypatch.setattr(index, "seeker", seeker)
    return calls


FORCED_ONE = PlannerHints(
    required_indexes=frozenset({"one"}), allowed_indexes=frozenset({"one"})
)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_leading_id_equality_bounds_the_scan(chunk, monkeypatch):
    db, sources, rels = build_fan_db()
    calls = traced_seeks(db, "one", monkeypatch)
    source = sources[2]
    result = execute(
        db,
        f"MATCH (a:A)-[x:X]->(b:A) WHERE id(a) = {source} RETURN id(b) AS b",
        FORCED_ONE,
        chunk=chunk,
    )
    rows = result.to_list()
    assert sorted(r["b"] for r in rows) == sorted(
        target for s, target in rels.values() if s == source
    )
    assert calls == [((source,), (source, 0, 0))]
    # 3 rows examined for 3 rows returned: the scan produced nothing else.
    (scan_rows,) = [
        count
        for description, count in result.profile.rows_by_operator()
        if description.startswith("PathIndexFilteredScan(one: a, x, b; id(a) =")
    ]
    assert scan_rows == 3


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_relationship_id_joins_the_bound_only_behind_a_fixed_start(chunk, monkeypatch):
    db, sources, rels = build_fan_db()
    calls = traced_seeks(db, "one", monkeypatch)
    rel, (source, target) = sorted(rels.items())[4]
    both = (
        f"MATCH (a:A)-[x:X]->(b:A) WHERE id(x) = {rel} AND {source} = id(a) "
        "RETURN id(b) AS b"
    )
    assert execute(db, both, FORCED_ONE, chunk=chunk).to_list() == [{"b": target}]
    assert calls == [((source, rel), (source, rel, 0))]
    del calls[:]
    alone = f"MATCH (a:A)-[x:X]->(b:A) WHERE id(x) = {rel} RETURN id(b) AS b"
    assert execute(db, alone, FORCED_ONE, chunk=chunk).to_list() == [{"b": target}]
    assert calls == [((), (0, 0, 0))]  # a per-entry check, not a bound


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_trailing_constant_keeps_skip_scan_restarts(chunk, monkeypatch):
    db, nodes = build_triangle_db()
    calls = traced_seeks(db, "two", monkeypatch)
    last = nodes[-1]
    query = (
        "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A) "
        f"WHERE a <> c AND id(c) = {last} RETURN id(a) AS a, id(b) AS b"
    )
    hints = PlannerHints(
        required_indexes=frozenset({"two"}), allowed_indexes=frozenset({"two"})
    )
    rows = execute(db, query, hints, chunk=chunk).to_list()
    assert len(rows) == 5 * 4  # a, b among the other five, a <> b
    assert all(prefix == () for prefix, _ in calls)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_argument_bound_leading_variables_bound_the_scan(chunk, monkeypatch):
    """Algorithm 1 binds rel + both endpoints as arguments; at pattern
    position 0 they are a key prefix for the removal-phase scan."""
    from repro.db.patternquery import Anchor

    db, nodes = build_triangle_db()
    index = db.path_index("two")
    source, target = nodes[2], nodes[4]
    (rel,) = [
        r.id for r in db.store.relationships_of(source) if r.end_node == target
    ]
    anchor = Anchor(0, rel, source, target)
    prefixes = []
    scan_prefix, scan = index.scan_prefix, index.scan
    monkeypatch.setattr(
        index, "scan_prefix", lambda p: (prefixes.append(tuple(p)), scan_prefix(p))[1]
    )
    monkeypatch.setattr(index, "scan", lambda: (prefixes.append(()), scan())[1])
    hints = PlannerHints(
        required_indexes=frozenset({"two"}), allowed_indexes=frozenset({"two"})
    )
    cached = db.maintainer.queries.prepare(index.pattern, anchor, hints)
    ((_, plan),) = cached.planned_parts
    assert find_op(plan, PlanPathIndexScan) is not None
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    initial = layout_of(cached.planned_parts).argument_row(
        anchor.bound_variables(), anchor.bound_rel_ids()
    )
    rows, profile = executor.execute(
        cached.planned_parts, initial_row=initial, morsel_size=chunk
    )
    entries = list(rows)  # n0, r0, n1, r1, n2: the projection is entry order
    assert len(entries) == 5  # on to every node but target
    assert all(entry[:3] == (source, rel, target) for entry in entries)
    assert prefixes == [(source, rel, target)]


def test_overlay_is_resolved_once_per_bounded_run(monkeypatch):
    """A skip-scan restarts its seek per violating subtree; the reader's
    overlay must be merged once per operator run, not once per restart."""
    db, nodes = build_triangle_db()
    index = db.path_index("two")
    extra = db.create_node(["A"])
    added = db.create_relationship(nodes[0], extra, "X")
    removed = next(
        rel.id for rel in db.store.relationships_of(nodes[0]) if rel.end_node == nodes[1]
    )
    db.delete_relationship(removed)
    assert index.delta_count() > 0  # written, not checkpointed: unfolded deltas
    merges = []
    original = index._overlay_at
    monkeypatch.setattr(
        index, "_overlay_at", lambda *args: (merges.append(args), original(*args))[1]
    )
    query = (
        "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A) "
        f"WHERE a <> c AND id(a) = {nodes[0]} RETURN id(b) AS b, id(c) AS c"
    )
    hints = PlannerHints(
        required_indexes=frozenset({"two"}), allowed_indexes=frozenset({"two"})
    )
    expected = sorted(
        db.execute(query, PlannerHints(use_path_indexes=False)).to_list(),
        key=lambda row: (row["b"], row["c"]),
    )
    assert added is not None and {row["b"] for row in expected} == set(nodes[2:])
    for chunk in CHUNK_SIZES:
        del merges[:]
        rows = execute(db, query, hints, chunk=chunk).to_list()
        assert sorted(rows, key=lambda row: (row["b"], row["c"])) == expected
        assert len(merges) == 1, chunk
