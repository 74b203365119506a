"""Resource governance: per-query memory accounting, spill-to-disk blocking
operators, and overload-safe degradation.

The acceptance bar for the subsystem:

* with a budget smaller than the working set, sort / aggregation / distinct /
  join shapes complete by spilling and return rows **identical** to
  unconstrained runs in both engines (the deterministic cost model means
  the engines also make identical spill decisions);
* pool exhaustion degrades gracefully — the affected query fails fast with
  :class:`MemoryLimitExceeded` (writes roll back to a fingerprint-identical
  store) while the process and every other query keep running;
* a crash mid-spill leaves orphaned ``*.spill`` files that recovery sweeps;
* ``ExecutionProfile`` and the service metrics expose the accounting.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultInjector, GraphDatabase, SimulatedCrashError
from repro.errors import MemoryLimitExceeded, QueryCancelledError
from repro.service import QueryService, ServiceConfig

from tests.engines import ENGINES, execute
from tests.test_durability_recovery import fingerprint

TIGHT = {"memory_budget": 1 << 20, "memory_grant": 4096}
"""A 4 KiB grant spills every blocking buffer after ~16 rows; the 1 MiB
budget leaves overage headroom so queries *complete* (by spilling) instead
of failing."""


def build_graph(db, n=90):
    people = []
    for i in range(n):
        people.append(
            db.create_node(["Person"], {"name": f"p{i:03d}", "v": i % 7})
        )
    for i in range(n - 1):
        db.create_relationship(people[i], people[i + 1], "KNOWS", {"w": i % 5})
    for i in range(0, n, 3):
        db.create_relationship(people[i], people[(i * 2 + 1) % n], "LIKES")
    return people


# The paper's query shapes, picked so every spillable operator is covered:
# sort, grouped + global aggregation, distinct, hash join / expand chains,
# cartesian product, and LIMIT over a sorted subtree.
QUERIES = [
    "MATCH (n:Person) RETURN n.name AS name ORDER BY n.name DESC",
    "MATCH (n:Person) RETURN n.v AS v, count(*) AS c ORDER BY v",
    "MATCH (n:Person) RETURN count(*) AS c",
    "MATCH (n:Person) RETURN DISTINCT n.v AS v ORDER BY v",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) "
    "RETURN a.name AS an, b.name AS bn ORDER BY an, bn",
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
    "RETURN a.name AS an, c.name AS cn ORDER BY an, cn",
    "MATCH (n:Person) RETURN n.name AS name ORDER BY n.v, n.name LIMIT 7",
    "MATCH (a:Person), (b:Person) WHERE a.v = 1 AND b.v = 2 "
    "RETURN a.name AS an, b.name AS bn ORDER BY an, bn",
]


@pytest.fixture(scope="module")
def reference_db():
    db = GraphDatabase()
    # CI re-runs the suite under REPRO_MEMORY_BUDGET; the reference must be
    # genuinely unconstrained either way.
    db.set_memory_budget(None)
    build_graph(db)
    return db


@pytest.fixture(scope="module")
def tight_db():
    db = GraphDatabase(**TIGHT)
    build_graph(db)
    return db


# ----------------------------------------------------------------------
# Differential: spilled runs are byte-identical to in-memory runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("query", QUERIES)
def test_spilled_rows_identical_across_engines(reference_db, tight_db, query):
    spills = {}
    for mode in ENGINES:
        expected = execute(reference_db, query, mode=mode).to_list()
        result = execute(tight_db, query, mode=mode)
        assert result.to_list() == expected, mode
        spills[mode] = result.profile.spill_runs
    # The flat per-row cost model makes the spill *decisions* engine
    # independent, not just the rows.
    assert len(set(spills.values())) == 1, spills


def test_the_tight_budget_actually_spills(tight_db):
    # Guards the fixture against cost-model drift: if a future change stops
    # the suite's queries from spilling, the differential above would pass
    # vacuously.
    for mode in ENGINES:
        result = execute(tight_db, QUERIES[0], mode=mode)
        result.to_list()
        assert result.profile.spill_runs > 0, mode
    assert tight_db.memory_pool.spill_runs > 0
    assert tight_db.spill_manager.files_created > 0


def test_unconstrained_runs_never_spill(reference_db):
    for query in QUERIES:
        for mode in ENGINES:
            result = execute(reference_db, query, mode=mode)
            result.to_list()
            assert result.profile.spill_runs == 0
    assert reference_db.memory_pool.spill_runs == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_random_graphs_spill_differentially(seed):
    """Property form: on arbitrary graphs, every engine under a tiny budget
    agrees with the unconstrained row engine."""
    rng = random.Random(seed)
    n = rng.randrange(15, 45)
    ops = []
    for i in range(n):
        ops.append(("node", tuple(rng.sample(["Person", "Q"], rng.randrange(1, 3))), i % 5))
    for _ in range(rng.randrange(10, 40)):
        ops.append(("rel", rng.randrange(n), rng.randrange(n), rng.choice(["KNOWS", "LIKES"])))

    def apply(db):
        nodes = []
        for op in ops:
            if op[0] == "node":
                nodes.append(db.create_node(list(op[1]), {"v": op[2]}))
            else:
                db.create_relationship(nodes[op[1]], nodes[op[2]], op[3])

    free = GraphDatabase()
    free.set_memory_budget(None)
    tight = GraphDatabase(**TIGHT)
    apply(free)
    apply(tight)
    queries = [
        "MATCH (n:Person) RETURN n.v AS v, count(*) AS c ORDER BY v",
        "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.v AS av, b.v AS bv "
        "ORDER BY av, bv",
        "MATCH (n) RETURN DISTINCT n.v AS v ORDER BY v",
    ]
    for query in queries:
        expected = free.execute(query, execution_mode="row").to_list()
        for mode in ENGINES:
            got = execute(tight, query, mode=mode).to_list()
            assert got == expected, (query, mode)
    free.close()
    tight.close()


# ----------------------------------------------------------------------
# Degradation: exhaustion fails fast, rolls back, and spares the rest
# ----------------------------------------------------------------------


def test_memory_exhausted_write_rolls_back_identically():
    def build(db):
        build_graph(db, 40)

    limited = GraphDatabase(memory_budget=96 * 1024, memory_grant=4096)
    build(limited)
    before = fingerprint(limited)
    # 40x40 written rows charge non-spillable update-buffer bytes far beyond
    # the 96 KiB pool.
    with pytest.raises(MemoryLimitExceeded):
        limited.execute(
            "MATCH (a:Person), (b:Person) CREATE (c:Copy) RETURN c"
        )
    assert fingerprint(limited) == before
    # The rolled-back store matches a twin that never saw the failed write.
    free = GraphDatabase()
    build(free)
    assert fingerprint(limited) == fingerprint(free)
    # The pool recovered its bytes: the same database still serves queries.
    assert limited.memory_pool.in_use_bytes == 0
    rows = limited.execute(
        "MATCH (n:Person) RETURN count(*) AS c"
    ).to_list()
    assert rows == [{"c": 40}]
    assert limited.memory_pool.limit_exceeded >= 1
    limited.close()
    free.close()


def test_pool_exhaustion_sheds_with_backpressure_and_recovers():
    db = GraphDatabase(memory_budget=48 * 1024, memory_grant=8192)
    build_graph(db, 30)
    pool = db.memory_pool
    query = "MATCH (n:Person) RETURN n.name AS name ORDER BY n.name"
    # Enough workers that every ticket is dispatched immediately — each
    # then waits (bounded by its deadline) for a grant that cannot come.
    config = ServiceConfig(max_concurrency=4, memory_grant_bytes=16 * 1024)
    with QueryService(db, config) as service:
        # Hoard almost the whole pool, as a runaway query would.
        hoard = pool.reserve_grant(40 * 1024, timeout_s=1.0)
        assert hoard == 40 * 1024
        tickets = [service.submit(query, deadline_s=0.25) for _ in range(3)]
        for ticket in tickets:
            with pytest.raises(MemoryLimitExceeded):
                ticket.result(timeout=10)
            assert ticket.status.name == "FAILED"
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.memory_rejections"] >= 3
        assert snapshot["memory"]["grants_denied"] >= 3
        # The process survived; freeing the hoard restores service.
        pool.release_grant(hoard)
        outcome = service.execute(query)
        assert len(outcome.rows) == 30
        assert outcome.peak_memory_bytes > 0
    db.close()


def test_concurrent_clients_survive_one_query_exhausting_the_pool():
    # One query that cannot fit shares the pool with many that can: only
    # the oversized one fails.
    db = GraphDatabase(memory_budget=128 * 1024, memory_grant=4096)
    build_graph(db, 40)
    small = "MATCH (n:Person) RETURN n.v AS v, count(*) AS c ORDER BY v"
    # ~40*40 = 1600 non-spillable written rows -> ~400 KiB > 128 KiB.
    oversized = "MATCH (a:Person), (b:Person) CREATE (c:Copy) RETURN c"
    with QueryService(db, ServiceConfig(max_concurrency=4)) as service:
        tickets = [service.submit(small) for _ in range(6)]
        bad = service.submit(oversized)
        with pytest.raises(MemoryLimitExceeded):
            bad.result(timeout=30)
        for ticket in tickets:
            assert len(ticket.result(timeout=30).rows) == 7
        # And after the failure, new queries still run.
        assert len(service.execute(small).rows) == 7
    db.close()


def test_watchdog_cancels_overlong_queries():
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    config = ServiceConfig(
        max_query_seconds=0.05, watchdog_interval_s=0.01
    )
    with QueryService(db, config) as service:
        ticket = service.submit(
            "MATCH (a:P), (b:P), (c:P) RETURN a.i AS x"
        )
        with pytest.raises(QueryCancelledError):
            ticket.result(timeout=60)
        assert ticket.status.name == "CANCELLED"
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.watchdog_cancels"] >= 1
        # A fast query under the same ceiling is untouched.
        assert service.execute("MATCH (n:P) RETURN count(*) AS c").rows == [
            {"c": 400}
        ]
    db.close()


# ----------------------------------------------------------------------
# Crash mid-spill: orphan files are swept by recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("point", ["spill.open", "spill.write", "spill.merge"])
def test_crash_mid_spill_leaves_no_orphans_after_reopen(tmp_path, point):
    directory = tmp_path / "data"
    injector = FaultInjector()
    db = GraphDatabase.open(
        directory, fault_injector=injector, memory_budget=1 << 20,
        memory_grant=4096,
    )
    for i in range(60):
        db.create_node(["P"], {"i": i})
    injector.arm(point, hits=3 if point == "spill.write" else 1)
    with pytest.raises(SimulatedCrashError):
        db.execute("MATCH (n:P) RETURN n.i AS i ORDER BY i DESC").to_list()
    if point != "spill.open":
        # The crashed session must NOT delete its files (a dead process
        # cannot); they sit orphaned next to the WAL...
        assert list(directory.glob("*.spill")), point
    # ...until recovery's open-time sweep reclaims them.
    recovered = GraphDatabase.open(directory)
    assert not list(directory.glob("*.spill"))
    rows = recovered.execute(
        "MATCH (n:P) RETURN n.i AS i ORDER BY i DESC"
    ).to_list()
    assert [row["i"] for row in rows] == list(reversed(range(60)))
    recovered.close()
    assert not list(directory.glob("*.spill"))


def test_service_shutdown_sweeps_spill_files(tmp_path):
    directory = tmp_path / "data"
    injector = FaultInjector()
    db = GraphDatabase.open(
        directory, fault_injector=injector, memory_budget=1 << 20,
        memory_grant=4096,
    )
    for i in range(60):
        db.create_node(["P"], {"i": i})
    service = QueryService(db, ServiceConfig(max_concurrency=2))
    injector.arm("spill.merge")
    ticket = service.submit("MATCH (n:P) RETURN n.i AS i ORDER BY i")
    with pytest.raises(SimulatedCrashError):
        ticket.result(timeout=30)
    assert list(directory.glob("*.spill"))
    service.shutdown()
    assert not list(directory.glob("*.spill"))
    assert db.spill_manager.files_swept > 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def test_profile_reports_per_operator_memory(tight_db, reference_db):
    query = QUERIES[0]
    result = tight_db.execute(query)
    result.to_list()
    profile = result.profile
    assert profile.peak_memory_bytes > 0
    assert profile.spill_runs > 0
    table = profile.bytes_by_operator()
    assert table, "expected per-operator memory rows"
    assert any(spills > 0 for _op, _peak, spills in table)
    assert all(peak >= 0 for _op, peak, _spills in table)
    # Unbounded pools still *account* (peaks visible, no spills).
    free_result = reference_db.execute(query)
    free_result.to_list()
    assert free_result.profile.peak_memory_bytes > 0
    assert free_result.profile.spill_runs == 0


def test_pool_counters_flow_into_service_metrics():
    db = GraphDatabase(**TIGHT)
    build_graph(db, 50)
    with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
        service.execute(
            "MATCH (n:Person) RETURN n.name AS name ORDER BY n.name"
        )
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["spill.runs"] > 0
        assert snapshot["counters"]["spill.bytes_written"] > 0
        memory = snapshot["memory"]
        assert memory["budget_bytes"] == TIGHT["memory_budget"]
        assert memory["spill_runs"] > 0
        assert memory["caches"]["plan_cache_bytes"] >= 0
    db.close()


def test_shell_memory_command(tight_db):
    import io

    from repro.shell import Shell

    out = io.StringIO()
    shell = Shell(
        tight_db,
        stdin=io.StringIO(
            "MATCH (n:Person) RETURN n.name AS name ORDER BY n.name DESC;\n"
            ":memory\n:metrics\n:quit\n"
        ),
        stdout=out,
    )
    try:
        shell.run()
    finally:
        shell.close()
    text = out.getvalue()
    assert "memory pool: budget 1048576 bytes" in text
    assert "spills:" in text
    assert "per-query peaks:" in text
    assert "plan_cache_bytes" in text
    assert ":memory for detail" in text


def test_memory_budget_env_vars(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(1 << 21))
    monkeypatch.setenv("REPRO_MEMORY_GRANT", "8192")
    db = GraphDatabase()
    assert db.memory_pool.budget_bytes == 1 << 21
    assert db.memory_pool.grant_bytes == 8192
    db.close()
