"""Tests for the §4.1.1 query (plan) cache."""

import sys
import threading
import time

import pytest

from repro import GraphDatabase, PlannerHints
from repro.db.plancache import CachedQuery, PlanCache
from repro.errors import PathIndexError, PlannerError

from tests.engines import ENGINES, execute


@pytest.fixture
def db():
    db = GraphDatabase()
    for _ in range(20):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        db.create_relationship(a, b, "X")
    return db


def test_repeated_query_hits_cache(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    assert db.plan_cache.misses >= 1
    hits_before = db.plan_cache.hits
    db.execute(query).consume()
    assert db.plan_cache.hits == hits_before + 1


def test_different_hints_cache_separately(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    db.execute(query, PlannerHints(use_path_indexes=False)).consume()
    assert db.plan_cache.hits == 0
    assert len(db.plan_cache) == 2


def test_index_creation_invalidates(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    db.create_path_index("i", "(:A)-[:X]->(:B)")
    result = db.execute(query)
    result.consume()
    assert db.plan_cache.invalidations >= 1
    # The re-planned query now uses the index when it wins the cost race.
    assert len(db.execute(query).to_list()) == 20


def test_statistics_drift_invalidates(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    # Grow the graph by far more than the drift threshold.
    for _ in range(60):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        db.create_relationship(a, b, "X")
    db.execute(query).consume()
    assert db.plan_cache.invalidations >= 1


def test_small_drift_keeps_entry(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    db.create_node(["A"])  # 1 node in 40: far below 25%
    db.execute(query).consume()
    assert db.plan_cache.hits >= 1


def test_cached_plan_returns_fresh_results(db):
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    first = len(db.execute(query).to_list())
    # Small addition (keeps the cache entry) must still appear in results.
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "X")
    assert len(db.execute(query).to_list()) == first + 1


def test_lru_capacity_bound():
    cache = PlanCache(capacity=2)
    for position in range(4):
        cache.store((f"q{position}", None), _entry())
    assert len(cache) == 2
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_maintenance_bypasses_the_text_keyed_cache(db):
    db.create_path_index("i", "(:A)-[:X]->(:B)")
    before = (db.plan_cache.hits, db.plan_cache.misses, len(db.plan_cache))
    for _ in range(2):
        a, b = db.create_node(["A"]), db.create_node(["B"])
        db.create_relationship(a, b, "X")  # triggers Algorithm 1 queries
    after = (db.plan_cache.hits, db.plan_cache.misses, len(db.plan_cache))
    assert before == after  # the maintenance queries never touched the cache
    assert db.verify_index("i")
    # ... but they did not re-plan either: the second commit re-used the
    # first one's plan from the maintainer's own cache.
    assert db.maintenance_plan_cache is not db.plan_cache
    assert db.maintenance_plan_cache.hits >= 1


# ---------------------------------------------------------------------------
# Index identity: a re-created name is not the index the plan was made for
# ---------------------------------------------------------------------------

X_QUERY = "MATCH (a:A)-[x:X]->(b:A) RETURN id(a), id(b)"


@pytest.fixture
def xy_db():
    db = GraphDatabase()
    a = [db.create_node(["A"]) for _ in range(3)]
    b = [db.create_node(["B"]) for _ in range(2)]
    db.create_relationship(a[0], a[1], "X")
    db.create_relationship(a[0], b[0], "Y")
    db.create_relationship(a[1], b[1], "Y")
    db.create_path_index("P", "(:A)-[:X]->(:A)")
    return db, a, b


@pytest.mark.parametrize("mode", ENGINES)
def test_recreated_index_name_does_not_hit_the_old_plan(xy_db, mode):
    db, a, b = xy_db
    # Cheap index operators: the planner picks P while P matches, without
    # the hints *requiring* it.
    hints = PlannerHints(path_index_cost_factor=0.001)
    expected = [{"id(a)": a[0], "id(b)": a[1]}]
    assert execute(db, X_QUERY, hints, mode=mode).to_list() == expected
    assert "PathIndex" in db.explain(X_QUERY, hints)
    invalidations = db.plan_cache.invalidations

    db.drop_path_index("P")
    db.create_path_index("P", "(:A)-[:Y]->(:B)")
    assert frozenset(db.indexes.visible_names()) == {"P"}  # same names as before
    assert db.plan_cache.invalidations > invalidations and len(db.plan_cache) == 0

    hits = db.plan_cache.hits
    assert db.execute(X_QUERY, hints, execution_mode=mode).to_list() == expected
    assert db.plan_cache.hits == hits
    assert "PathIndex" not in db.explain(X_QUERY, hints)


@pytest.mark.parametrize("mode", ENGINES)
def test_plan_forced_onto_a_recreated_index_is_replanned(xy_db, mode):
    db, a, b = xy_db
    forced = PlannerHints(
        required_indexes=frozenset({"P"}), allowed_indexes=frozenset({"P"})
    )
    assert len(execute(db, X_QUERY, forced, mode=mode).to_list()) == 1
    hits = db.plan_cache.hits
    db.drop_path_index("P")
    db.create_path_index("P", "(:A)-[:Y]->(:B)")
    # The stale entry used to answer with the two Y edges (or, compiled,
    # with the dropped index object); P no longer matches the query at all.
    with pytest.raises(PlannerError):
        db.execute(X_QUERY, forced, execution_mode=mode)
    assert db.plan_cache.hits == hits


def test_plan_that_raced_index_ddl_is_not_stored():
    cache = PlanCache()
    generation = cache.generation  # read before planning ...
    cache.invalidate_all()  # ... DDL runs meanwhile ...
    cache.store(("q", None), _entry(), generation)  # ... the plan is stale
    assert len(cache) == 0
    cache.store(("q", None), _entry(), cache.generation)
    assert len(cache) == 1
    cache.invalidate_all()
    assert (len(cache), cache.invalidations) == (0, 1)


def test_plans_racing_index_ddl_are_never_cached(xy_db):
    """Readers plan never-seen texts while DDL keeps replacing P under the
    same name. A query in flight across the DDL may still fail to resolve P
    (lock-free readers, as before); once DDL is quiet, every cached text
    must answer from the current index set."""
    db, a, b = xy_db
    hints = PlannerHints(path_index_cost_factor=0.001)
    expected = [{"id(a)": a[0], "id(b)": a[1]}]
    patterns = ["(:A)-[:Y]->(:B)", "(:A)-[:X]->(:A)"]
    texts: list[str] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader(worker: int) -> None:
        n = 0
        try:
            while not stop.is_set():
                n += 1
                text = f"{X_QUERY} LIMIT {worker * 100_000 + n}"
                try:
                    db.execute(text, hints).consume()
                except PathIndexError:
                    continue  # planned with P, P dropped before it ran
                texts.append(text)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    try:
        for thread in threads:
            thread.start()
        for round_ in range(25):
            db.drop_path_index("P")
            db.create_path_index("P", patterns[round_ % 2])
        time.sleep(0.05)  # plans begun before the last DDL finish and store
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # P now indexes Y edges; a stale PathIndexScan(P) would return them.
    assert "Y" in str(db.path_index("P").pattern)
    cached = [text for text in texts if (text, hints) in dict(db.plan_cache.items())]
    assert cached
    for text in cached:
        assert db.execute(text, hints).to_list() == expected, text


def test_direct_lookup_and_store_share_entries_with_execute(db):
    """perfbench's traced read drives the cache through these call shapes."""
    query = "MATCH (a:A)-[r:X]->(b:B) RETURN a"
    db.execute(query).consume()
    stats = db.store.statistics_view()
    signature = frozenset(db.indexes.visible_names())
    entry = db.plan_cache.lookup(
        (query, None), stats.node_count, stats.relationship_count, signature
    )
    assert entry is not None and db.plan_cache.hits == 1
    other = "MATCH (b:B) RETURN b"
    prepared = db.prepare(other)
    db.plan_cache.clear()
    db.plan_cache.store((other, None), prepared)  # two-argument form
    hits = db.plan_cache.hits
    assert len(db.execute(other).to_list()) == 20
    assert db.plan_cache.hits == hits + 1


def test_counters_report_size_and_capacity():
    cache = PlanCache(capacity=2)
    cache.store(("q", None), _entry())
    cache.lookup(("q", None), 0, 0, frozenset())
    cache.lookup(("missing", None), 0, 0, frozenset())
    assert cache.counters() == {
        "hits": 1, "misses": 1, "invalidations": 0, "evictions": 0,
        "size": 1, "capacity": 2,
    }


def _entry():
    return CachedQuery(
        analyzed=None,
        planned_parts=[],
        columns=[],
        node_count=0,
        relationship_count=0,
        index_signature=frozenset(),
    )
