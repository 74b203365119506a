"""Tests for the §4.1.1 query (plan) cache."""

import sys
import threading
import time

import pytest

from repro import GraphDatabase, PlannerHints
from repro.db import database
from repro.db.plancache import (
    BINDING_BYTES,
    ENTRY_BYTES,
    BoundParts,
    CachedQuery,
    PlanCache,
)
from repro.errors import PathIndexError, PlannerError
from repro.runtime import Executor
from repro.runtime.executor import ARTIFACT

from tests.engines import CHUNK_SIZES, execute


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


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_recreated_index_name_does_not_hit_the_old_plan(xy_db, chunk):
    db, a, b = xy_db
    # Cheap index operators: the planner picks P while P matches, without
    # the hints *requiring* it.
    hints = PlannerHints(path_index_cost_factor=0.001)
    expected = [{"id(a)": a[0], "id(b)": a[1]}]
    assert execute(db, X_QUERY, hints, chunk=chunk).to_list() == expected
    assert "PathIndex" in db.explain(X_QUERY, hints)
    invalidations = db.plan_cache.invalidations

    db.drop_path_index("P")
    db.create_path_index("P", "(:A)-[:Y]->(:B)")
    assert frozenset(db.indexes.visible_names()) == {"P"}  # same names as before
    assert db.plan_cache.invalidations > invalidations and len(db.plan_cache) == 0

    hits = db.plan_cache.hits
    assert execute(db, X_QUERY, hints, chunk=chunk).to_list() == expected
    assert db.plan_cache.hits == hits
    assert "PathIndex" not in db.explain(X_QUERY, hints)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_plan_forced_onto_a_recreated_index_is_replanned(xy_db, chunk):
    db, a, b = xy_db
    forced = PlannerHints(
        required_indexes=frozenset({"P"}), allowed_indexes=frozenset({"P"})
    )
    assert len(execute(db, X_QUERY, forced, chunk=chunk).to_list()) == 1
    hits = db.plan_cache.hits
    db.drop_path_index("P")
    db.create_path_index("P", "(:A)-[:Y]->(:B)")
    # The stale entry used to answer with the two Y edges (or, compiled,
    # with the dropped index object); P no longer matches the query at all.
    with pytest.raises(PlannerError):
        execute(db, X_QUERY, forced, chunk=chunk)
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


# ---------------------------------------------------------------------------
# Shape keys: literals become slots, and a text of a known shape binds them
# ---------------------------------------------------------------------------

SHAPE = "MATCH (a:A)-[r:X]->(b:B) WHERE id(a) = {} RETURN id(b) AS b LIMIT {}"


def a_ids(db):
    return sorted(db.store.nodes_with_label(db.label("A")))


def partner(db, a):
    (rel,) = db.store.relationships_of(a)
    return rel.end_node


def test_texts_of_one_shape_share_the_plan_and_its_artifact(db):
    ids = a_ids(db)
    texts = [SHAPE.format(ids[n], 5) for n in range(3)]
    for text in texts:
        db.execute(text).consume()
    first, second = db.prepare(texts[0]), db.prepare(texts[1])
    assert isinstance(first.planned_parts, BoundParts)
    assert first.planned_parts is not second.planned_parts
    assert first.planned_parts[0] is second.planned_parts[0]
    assert first.analyzed is second.analyzed
    plan = first.planned_parts[0][1]
    assert plan.__dict__[ARTIFACT] is not None
    assert plan is second.planned_parts[0][1]  # one plan, so one artifact
    params = first.planned_parts.params, second.planned_parts.params
    assert params == ((ids[0], 5), (ids[1], 5))
    # A per-text entry executes on its own: the parts carry their params.
    executor = Executor(db.store, db.indexes, first.analyzed.variable_kinds)
    for entry, a in ((first, ids[0]), (second, ids[1])):
        rows, _ = executor.execute(entry.planned_parts)
        assert list(rows) == [(partner(db, a),)]
    assert plan.__dict__[ARTIFACT] is first.planned_parts[0][1].__dict__[ARTIFACT]


def test_misses_count_plannings_and_a_shape_answer_is_a_hit(db):
    events = []
    cache = db.plan_cache
    cache.subscribe(events.append)
    ids = a_ids(db)
    db.execute(SHAPE.format(ids[0], 1)).consume()
    assert (cache.hits, cache.misses) == (0, 1)  # the shape was planned
    db.execute(SHAPE.format(ids[1], 1)).consume()
    assert (cache.hits, cache.misses) == (1, 1)  # a new text, a known shape
    db.execute(SHAPE.format(ids[1], 1)).consume()
    assert (cache.hits, cache.misses) == (2, 1)  # the text itself
    db.execute("MATCH (a:A) RETURN count(*) AS n").consume()
    assert (cache.hits, cache.misses) == (2, 2)  # no literal: planned by text
    # Un-aliased literal columns name the result: planned per text.
    for k in (1, 2):
        assert db.execute(f"RETURN {k}, 'a'").columns == [str(k), "'a'"]
    assert (cache.hits, cache.misses) == (2, 4)
    assert events.count("hit") == 2 and events.count("miss") == 4
    # One shape, its two texts, the count and the two literal-column texts.
    assert len(cache) == 6


def test_metrics_status_and_shell_count_plannings_as_misses(db):
    import io

    from repro import QueryService
    from repro.client import Client
    from repro.server import BackgroundServer, ServerConfig
    from repro.shell import Shell

    ids = a_ids(db)
    with QueryService(db) as service:
        server = BackgroundServer(service, ServerConfig(port=0))
        host, port = server.start()
        try:
            with Client(host, port) as client:
                for a in ids[:3]:
                    assert client.execute(SHAPE.format(a, 1)).row_count == 1
                status = client.status()
        finally:
            server.stop()
        counters = service.metrics_snapshot()["counters"]
    assert (counters["plan_cache.hit"], counters["plan_cache.miss"]) == (2, 1)
    assert (status["plan_cache"]["hits"], status["plan_cache"]["misses"]) == (2, 1)
    output = io.StringIO()
    Shell(db=db, stdin=io.StringIO(":metrics\n"), stdout=output).run()
    assert "\nplan cache: 2 hits, 1 misses, 0 invalidations" in output.getvalue()


def test_index_ddl_and_drift_drop_text_and_shape_entries_together(db):
    ids = a_ids(db)
    texts = [SHAPE.format(ids[n], 1) for n in range(2)]
    for text in texts:
        db.execute(text).consume()
    assert len(db.plan_cache) == 3  # the shape and both texts
    db.create_path_index("ab", "(:A)-[:X]->(:B)")
    assert len(db.plan_cache) == 0
    for text in texts:
        db.execute(text).consume()
    before = db.prepare(texts[1]).planned_parts[0]
    invalidations = db.plan_cache.invalidations
    for _ in range(60):  # far beyond the drift threshold
        db.create_relationship(db.create_node(["A"]), db.create_node(["B"]), "X")
    assert db.execute(texts[0]).to_list() == [{"b": partner(db, ids[0])}]
    # Its text entry and its shape went stale together and were re-planned.
    assert db.plan_cache.invalidations == invalidations + 2
    fresh = db.prepare(texts[0]).planned_parts[0]
    assert fresh is not before
    assert db.prepare(texts[1]).planned_parts[0] is fresh
    assert db.plan_cache.invalidations == invalidations + 3


def test_a_shape_plan_that_raced_index_ddl_is_not_stored(db, monkeypatch):
    planned = database.parse_shape

    def ddl_while_planning(*args):
        db.create_path_index("ab", "(:A)-[:X]->(:B)")
        return planned(*args)

    monkeypatch.setattr(database, "parse_shape", ddl_while_planning)
    a = a_ids(db)[0]
    assert db.execute(SHAPE.format(a, 1)).to_list() == [{"b": partner(db, a)}]
    assert len(db.plan_cache) == 0  # neither the shape nor the text


def test_bindings_are_charged_at_their_own_size(db):
    ids = a_ids(db)
    for n in range(5):
        db.execute(SHAPE.format(ids[n], 1)).consume()
    db.execute("MATCH (a:A) RETURN count(*) AS n").consume()
    expected = 2 * ENTRY_BYTES + 5 * BINDING_BYTES  # two plans, five texts
    assert db.plan_cache.approx_bytes() == expected
    assert db.memory_pool.snapshot()["caches"]["plan_cache_bytes"] == expected


def test_parameters_bind_the_same_slots_as_literals(db):
    ids = a_ids(db)
    text = "MATCH (a:A)-[r:X]->(b:B) WHERE id(a) = $a RETURN id(b) AS b LIMIT $n"
    for a in ids[:3]:
        rows = db.execute(text, params={"a": a, "n": 1}).to_list()
        assert rows == [{"b": partner(db, a)}]
    assert (db.plan_cache.hits, db.plan_cache.misses) == (2, 1)
    assert len(db.plan_cache) == 1  # bound values are no text: shape only
    source = db.compiled_source(text, params={"a": ids[0], "n": 1})
    assert "_params[0]" in source and "_params[1]" in source
    assert db.compiled_source(text, params={"a": ids[1], "n": 7}) == source
    # A negative id is another type class, so another shape: no seek.
    assert db.execute(text, params={"a": -1, "n": 1}).to_list() == []
    assert db.plan_cache.misses == 2


def test_parameters_of_a_text_whose_literals_cannot_share_are_cached(db):
    """An un-aliased literal column names its column, so the text is
    planned with its literals; run with ``params``, that plan is kept
    under the text and its shape, leaving only the ``$name`` slots."""
    for a in db.store.all_nodes():
        db.store.set_node_property(a, db.property_key("v"), a % 3)
    text = "MATCH (a:A) WHERE a.v = $v RETURN a.v, 1 ORDER BY a.v"
    db.plan_cache.clear()
    db.plan_cache.hits = db.plan_cache.misses = 0
    for call, v in enumerate((1, 1, 2, 0)):
        result = db.execute(text, params={"v": v})
        assert result.columns == ["a.v", "1"]
        rows = [tuple(row.values()) for row in result.to_list()]
        count = sum(1 for a in a_ids(db) if a % 3 == v)
        assert rows == [(v, 1)] * count, (call, v)
        assert (db.plan_cache.hits, db.plan_cache.misses) == (call, 1)
    assert len(db.plan_cache) == 1
    # Another type class for $v is another shape: planned once more.
    assert db.execute(text, params={"v": "x"}).to_list() == []
    assert db.plan_cache.misses == 2


@pytest.mark.parametrize(
    "text, params, error",
    [
        ("MATCH (a:A) WHERE id(a) = $a RETURN a", None, "missing parameter \\$a"),
        ("MATCH (a:A) WHERE id(a) = $a RETURN a", {}, "missing parameter \\$a"),
        ("MATCH (a:A) RETURN a", {"a": 1}, "not used by the query: \\$a"),
        ("MATCH (a:A) WHERE id(a) = $a RETURN a", {"a": [1]}, "unsupported"),
        ("MATCH (a:A) RETURN a LIMIT $n", {"n": -1}, "LIMIT expects"),
        ("MATCH (a:A) RETURN a SKIP $n", {"n": 1.0}, "SKIP expects"),
    ],
)
def test_parameter_errors_are_raised_before_planning(db, text, params, error):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match=error):
        db.execute(text, params=params)
    assert db.plan_cache.counters()["misses"] <= 1 and len(db.plan_cache) == 0


@pytest.mark.parametrize(
    "text, error",
    [
        ("MATCH (a:A RETURN a", "CypherSyntaxError"),
        ("MATCH (a:A) WHERE a.v = 1 RETURN b", "CypherSemanticError"),
        ("MATCH (a:A) RETURN a", None),
    ],
)
def test_every_prepare_counts_one_hit_or_one_miss(db, text, error):
    """Failed plannings count as misses, as the service metrics expect."""
    for _ in range(2):
        if error is None:
            db.prepare(text)
        else:
            with pytest.raises(Exception) as raised:
                db.prepare(text)
            assert type(raised.value).__name__ == error
    counters = db.plan_cache.counters()
    assert (counters["hits"], counters["misses"]) == ((1, 1) if error is None else (0, 2))


def test_index_ddl_empties_plans_and_bindings(db):
    ids = a_ids(db)
    for n in range(4):
        db.execute(SHAPE.format(ids[n], 1)).consume()
    db.execute("MATCH (a:A) RETURN count(*) AS n").consume()
    cache = db.plan_cache
    assert cache.approx_bytes() == 2 * ENTRY_BYTES + 4 * BINDING_BYTES
    invalidations = cache.invalidations
    db.create_path_index("ab", "(:A)-[:X]->(:B)")
    assert (len(cache), cache.items(), cache.approx_bytes()) == (0, [], 0)
    assert cache.invalidations == invalidations + 6


def _perfbench():
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "perfbench")):
        pytest.skip("perfbench/ is not part of this checkout")
    if root not in sys.path:
        sys.path.insert(0, root)
    import perfbench
    from perfbench import embedded

    return perfbench, embedded


def test_adhoc_plan_texts_compile_once_per_shape(tmp_path):
    """``adhoc_plan``'s never-seen texts: six shapes, so after the first
    text of each every op skips the parser and the planner and reuses the
    code the shape's first execution generated."""
    perfbench, embedded = _perfbench()
    workload = embedded.AdhocPlan(
        perfbench.DEFAULT_SEED, perfbench.SMOKE, str(tmp_path), False
    )
    workload.setup()
    try:
        db = workload.db
        artifacts = []
        for n in range(60):
            result = db.execute(workload.text(workload.graph, workload.order, n))
            assert len(result.to_list()) == 1
            artifacts.append(result.profile.plans[0].__dict__[ARTIFACT])
        assert len({id(artifact) for artifact in artifacts}) == len(workload.FAMILIES)
        assert db.plan_cache.misses == len(workload.FAMILIES)
        assert db.plan_cache.hits == len(artifacts) - len(workload.FAMILIES)
    finally:
        workload.db.close()


def _entry():
    return CachedQuery(
        analyzed=None,
        planned_parts=[],
        columns=[],
        node_count=0,
        relationship_count=0,
        index_signature=frozenset(),
    )
