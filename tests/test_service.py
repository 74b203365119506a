"""Tests for the concurrent query service layer (repro.service).

Covers admission-control rejection under saturation, deadline expiry and
explicit cancellation mid-scan, write-conflict retry, metrics accounting,
and a multi-threaded smoke test asserting concurrent results match serial
execution.
"""

import threading
import time

import pytest

from repro import (
    GraphDatabase,
    QueryCancelledError,
    QueryService,
    QueryStatus,
    QueryTimeoutError,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceShutdownError,
    TransactionError,
)
from repro.service.cancellation import CancellationToken
from repro.service.metrics import MetricsRegistry


@pytest.fixture
def small_db():
    db = GraphDatabase()
    for i in range(50):
        db.create_node(["P"], {"i": i})
    return db


@pytest.fixture
def big_db():
    """A graph whose cross-product query yields ~160k rows — big enough
    that a short deadline always fires mid-scan."""
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    return db


CROSS_QUERY = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"


# ----------------------------------------------------------------------
# Basic execution
# ----------------------------------------------------------------------


def test_execute_returns_rows_and_stats(small_db):
    with QueryService(small_db) as service:
        outcome = service.execute("MATCH (n:P) RETURN n.i AS i")
        assert outcome.row_count == 50
        assert sorted(row["i"] for row in outcome.rows) == list(range(50))
        assert outcome.columns == ["i"]
        assert outcome.execution_seconds > 0
        assert outcome.attempts == 1


def test_write_query_through_service(small_db):
    with QueryService(small_db) as service:
        service.execute("CREATE (x:Q {name: 'via-service'})")
        outcome = service.execute("MATCH (x:Q) RETURN x.name AS name")
        assert [row["name"] for row in outcome.rows] == ["via-service"]
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.write_queries"] == 1


def test_metrics_snapshot_reports_the_maintenance_plan_cache(small_db):
    for _ in range(10):  # enough relationships that three more are no drift
        small_db.create_relationship(
            small_db.create_node(["P"]), small_db.create_node(["Q"]), "R"
        )
    small_db.create_path_index("pq", "(:P)-[:R]->(:Q)")
    with QueryService(small_db) as service:
        for _ in range(3):
            service.execute("CREATE (:P)-[:R]->(:Q)")
        snapshot = service.metrics_snapshot()
        maintenance = snapshot["maintenance_plan_cache"]
        assert maintenance == small_db.maintenance_plan_cache.counters()
        assert set(maintenance) == set(snapshot["plan_cache"])
        # Planned by the first commit, re-bound by the other two.
        assert maintenance["hits"] >= 2
        # The text-keyed cache's counters keep their meaning.
        assert snapshot["plan_cache"]["hits"] == 2
        assert snapshot["counters"]["plan_cache.hit"] == 2


def test_submit_is_asynchronous(small_db):
    with QueryService(small_db) as service:
        ticket = service.submit("MATCH (n:P) RETURN n.i AS i")
        outcome = ticket.result(timeout=10)
        assert ticket.done
        assert ticket.status is QueryStatus.SUCCEEDED
        assert outcome.row_count == 50


def test_shutdown_rejects_new_queries(small_db):
    service = QueryService(small_db)
    service.shutdown()
    with pytest.raises(ServiceShutdownError):
        service.submit("MATCH (n:P) RETURN n")
    service.shutdown()  # idempotent


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_admission_rejection_under_saturation(big_db):
    config = ServiceConfig(max_concurrency=1, max_pending=1)
    with QueryService(big_db, config) as service:
        # Block the single worker with a slow query, fill the single queue
        # slot, then watch further submissions bounce.
        tickets = [service.submit(CROSS_QUERY)]
        rejected = 0
        for _ in range(10):
            try:
                tickets.append(service.submit(CROSS_QUERY))
            except ServiceOverloadedError:
                rejected += 1
        assert rejected > 0
        for ticket in tickets:
            ticket.result(timeout=60)
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.admission_rejections"] == rejected
        assert (
            snapshot["counters"]["service.queries_submitted"]
            == len(tickets)
        )


# ----------------------------------------------------------------------
# Deadlines and cancellation
# ----------------------------------------------------------------------


def test_deadline_stops_scan_early(big_db):
    full = len(big_db.execute(CROSS_QUERY).to_list())
    with QueryService(big_db) as service:
        ticket = service.submit(CROSS_QUERY, deadline_s=0.02)
        with pytest.raises(QueryTimeoutError):
            ticket.result(timeout=60)
        assert ticket.status is QueryStatus.TIMED_OUT
        # The cancellation token fired mid-scan: strictly fewer rows than
        # the full result were produced.
        assert ticket.rows_produced < full
        assert service.metrics_snapshot()["counters"]["service.timeouts"] == 1


def test_timeout_error_is_builtin_timeout(big_db):
    with QueryService(big_db) as service:
        with pytest.raises(TimeoutError):
            service.execute(CROSS_QUERY, deadline_s=0.02)


def test_default_deadline_from_config(big_db):
    config = ServiceConfig(default_deadline_s=0.02)
    with QueryService(big_db, config) as service:
        with pytest.raises(QueryTimeoutError):
            service.execute(CROSS_QUERY)


def test_explicit_cancellation_mid_scan(big_db):
    with QueryService(big_db) as service:
        ticket = service.submit(CROSS_QUERY)
        # Wait until the query is actually producing rows, then cancel.
        deadline = time.monotonic() + 30
        while ticket.rows_produced == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        ticket.cancel()
        with pytest.raises(QueryCancelledError):
            ticket.result(timeout=60)
        assert ticket.status is QueryStatus.CANCELLED
        assert (
            service.metrics_snapshot()["counters"]["service.cancellations"]
            == 1
        )


def test_cancel_before_start(big_db):
    config = ServiceConfig(max_concurrency=1, max_pending=2)
    with QueryService(big_db, config) as service:
        blocker = service.submit(CROSS_QUERY)
        queued = service.submit("MATCH (n:P) RETURN n")
        queued.cancel()
        with pytest.raises(QueryCancelledError):
            queued.result(timeout=60)
        assert queued.status is QueryStatus.CANCELLED
        blocker.result(timeout=60)


def test_queue_wait_counts_against_deadline(big_db):
    config = ServiceConfig(max_concurrency=1, max_pending=4)
    with QueryService(big_db, config) as service:
        blocker = service.submit(CROSS_QUERY)
        # This query's deadline expires while it waits behind the blocker.
        starved = service.submit("MATCH (n:P) RETURN n", deadline_s=0.001)
        with pytest.raises(QueryTimeoutError):
            starved.result(timeout=60)
        assert starved.rows_produced == 0
        blocker.result(timeout=60)


def test_timed_out_write_rolls_back(big_db):
    # A write whose MATCH phase times out must leave no partial writes.
    before = big_db.store.statistics.node_count
    with QueryService(big_db) as service:
        with pytest.raises(QueryTimeoutError):
            service.execute(
                "MATCH (a:P), (b:P) CREATE (c:Copy) RETURN c",
                deadline_s=0.02,
            )
    assert big_db.store.statistics.node_count == before


# ----------------------------------------------------------------------
# Write-conflict retry
# ----------------------------------------------------------------------


class _FlakyDatabase(GraphDatabase):
    """Raises transient TransactionErrors for the first N write attempts."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.failures_left = failures
        self.attempts_seen = 0

    def execute(
        self,
        query_text,
        hints=None,
        token=None,
        prepared=None,
        execution_mode=None,
        tracker=None,
    ):
        cached = prepared if prepared is not None else self.prepare(query_text, hints)
        if cached.analyzed.is_write:
            self.attempts_seen += 1
            if self.failures_left > 0:
                self.failures_left -= 1
                raise TransactionError("simulated transient write conflict")
        return super().execute(
            query_text,
            hints,
            token=token,
            prepared=cached,
            execution_mode=execution_mode,
            tracker=tracker,
        )


def test_write_conflict_retry_succeeds():
    db = _FlakyDatabase(failures=2)
    config = ServiceConfig(write_retries=3, retry_backoff_s=0.001)
    with QueryService(db, config) as service:
        outcome = service.execute("CREATE (n:R {ok: 1}) RETURN n")
        assert outcome.attempts == 3
        assert db.attempts_seen == 3
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.retries"] == 2
        assert len(db.execute("MATCH (n:R) RETURN n").to_list()) == 1


def test_write_conflict_budget_exhausted():
    db = _FlakyDatabase(failures=100)
    config = ServiceConfig(write_retries=2, retry_backoff_s=0.001)
    with QueryService(db, config) as service:
        ticket = service.submit("CREATE (n:R) RETURN n")
        with pytest.raises(TransactionError):
            ticket.result(timeout=60)
        assert ticket.status is QueryStatus.FAILED
        assert db.attempts_seen == 3  # first try + 2 retries
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.retries"] == 2
        assert snapshot["counters"]["service.failures"] == 1


def test_read_errors_are_not_retried(small_db):
    with QueryService(small_db) as service:
        ticket = service.submit("MATCH (;")  # syntax error
        with pytest.raises(Exception):
            ticket.result(timeout=60)
        assert ticket.status is QueryStatus.FAILED
        assert (
            "service.retries"
            not in service.metrics_snapshot()["counters"]
        )


# ----------------------------------------------------------------------
# Concurrency smoke test
# ----------------------------------------------------------------------


def test_concurrent_results_match_serial():
    db = GraphDatabase()
    for i in range(60):
        a = db.create_node(["A"], {"i": i})
        b = db.create_node(["B"], {"i": i})
        db.create_relationship(a, b, "X")
    queries = [
        "MATCH (a:A)-[r:X]->(b:B) RETURN a.i AS ai, b.i AS bi",
        "MATCH (a:A) RETURN a.i AS i",
        "MATCH (b:B) RETURN b.i AS i",
        "MATCH (a:A)-[r:X]->(b:B) WHERE a.i < 10 RETURN a.i AS i",
    ] * 6
    serial = [
        sorted(map(tuple, (row.items() for row in db.execute(q).to_list())))
        for q in queries
    ]
    with QueryService(db, ServiceConfig(max_concurrency=4, max_pending=64)) as service:
        tickets = [service.submit(q) for q in queries]
        concurrent = [
            sorted(map(tuple, (row.items() for row in t.result(timeout=120).rows)))
            for t in tickets
        ]
    assert concurrent == serial


def test_concurrent_counters_are_consistent():
    db = GraphDatabase()
    for i in range(40):
        db.create_node(["P"], {"i": i})
    total = 32
    with QueryService(db, ServiceConfig(max_concurrency=4, max_pending=total)) as service:
        # Warm the plan cache serially so the concurrent batch below is
        # deterministic: exactly one miss, then hits only.
        assert service.execute("MATCH (n:P) RETURN n.i AS i").row_count == 40
        tickets = [
            service.submit("MATCH (n:P) RETURN n.i AS i")
            for _ in range(total - 1)
        ]
        for ticket in tickets:
            assert ticket.result(timeout=120).row_count == 40
        counters = service.metrics_snapshot()["counters"]
        assert counters["service.queries_submitted"] == total
        assert counters["service.queries_completed"] == total
        assert counters["service.rows_total"] == total * 40
        assert counters["plan_cache.miss"] == 1
        assert counters["plan_cache.hit"] == total - 1


def test_mixed_read_write_stress():
    """Reads scanning the store while writes commit must neither crash
    ("dictionary changed size during iteration") nor tear results: under
    the readers-writer lock every read sees a committed prefix of the
    writes."""
    db = GraphDatabase()
    for i in range(30):
        db.create_node(["P"], {"i": i})
    writes = 40
    with QueryService(db, ServiceConfig(max_concurrency=4, max_pending=256)) as service:
        errors = []
        read_counts = []

        def writer():
            for i in range(writes):
                try:
                    service.execute(f"CREATE (w:W {{i: {i}}})")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        def reader():
            for _ in range(40):
                try:
                    outcome = service.execute(
                        "MATCH (n:W) RETURN n.i AS i"
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                else:
                    read_counts.append(outcome.row_count)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Each read saw some committed prefix of the write stream.
        assert all(0 <= count <= writes for count in read_counts)
        final = service.execute("MATCH (n:W) RETURN n.i AS i")
        assert sorted(row["i"] for row in final.rows) == list(range(writes))


def test_shutdown_cancel_pending_sheds_queued_work(big_db):
    config = ServiceConfig(max_concurrency=1, max_pending=8)
    service = QueryService(big_db, config)
    blocker = service.submit(CROSS_QUERY)
    # Let the single worker actually pick the blocker up so it is the one
    # query that runs to completion.
    deadline = time.monotonic() + 30
    while blocker.status is QueryStatus.PENDING and time.monotonic() < deadline:
        time.sleep(0.001)
    queued = [service.submit("MATCH (n:P) RETURN n") for _ in range(4)]
    service.shutdown(wait=True, cancel_pending=True)
    # The running query is cancelled through its token (shutdown never
    # waits out a slow query); everything still queued fails fast.
    with pytest.raises(QueryCancelledError):
        blocker.result(timeout=60)
    shed = 0
    for ticket in queued:
        if ticket.status is not QueryStatus.CANCELLED:
            # Raced onto the worker before shutdown drained the queue —
            # then its token was cancelled like the blocker's.
            with pytest.raises(QueryCancelledError):
                ticket.result(timeout=60)
            continue
        try:
            ticket.result(timeout=1)
        except ServiceShutdownError:
            shed += 1
        except QueryCancelledError:
            pass  # started just before the queue was drained
    assert shed > 0
    counters = service.metrics_snapshot()["counters"]
    assert counters["service.shed_on_shutdown"] == shed
    assert counters["service.cancelled_on_shutdown"] >= 1


def test_shutdown_cancel_pending_cancels_in_flight_query(big_db):
    """shutdown(cancel_pending=True) must not wait out a slow query: the
    in-flight query's cancellation token fires and shutdown returns
    promptly instead of hanging behind the full cross-product scan."""
    full = len(big_db.execute(CROSS_QUERY).to_list())
    service = QueryService(big_db, ServiceConfig(max_concurrency=1))
    ticket = service.submit(CROSS_QUERY)
    deadline = time.monotonic() + 30
    while ticket.rows_produced == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    started = time.monotonic()
    service.shutdown(wait=True, cancel_pending=True)
    elapsed = time.monotonic() - started
    with pytest.raises(QueryCancelledError):
        ticket.result(timeout=1)
    assert ticket.status is QueryStatus.CANCELLED
    # Cancelled mid-scan, well short of the full result.
    assert ticket.rows_produced < full
    counters = service.metrics_snapshot()["counters"]
    assert counters["service.cancelled_on_shutdown"] == 1
    assert counters["service.cancellations"] == 1
    # The cross-product takes whole seconds; a cooperative cancel at a row
    # boundary returns in a small fraction of that.
    assert elapsed < 30


def test_commit_lsn_in_result_and_outcome(tmp_path):
    """Writes against a durable database report their WAL commit LSN (the
    read-your-writes token) on both Result and QueryOutcome; reads and
    non-durable databases report None."""
    db = GraphDatabase.open(str(tmp_path / "data"))
    try:
        first = db.execute("CREATE (:W {i: 1})")
        second = db.execute("CREATE (:W {i: 2})")
        assert isinstance(first.commit_lsn, int)
        assert isinstance(second.commit_lsn, int)
        assert second.commit_lsn > first.commit_lsn
        assert db.execute("MATCH (n:W) RETURN n.i AS i").commit_lsn is None
        with QueryService(db) as service:
            outcome = service.execute("CREATE (:W {i: 3})")
            assert isinstance(outcome.commit_lsn, int)
            assert outcome.commit_lsn > second.commit_lsn
            assert (
                service.execute("MATCH (n:W) RETURN n.i AS i").commit_lsn
                is None
            )
    finally:
        db.close()
    volatile = GraphDatabase()
    assert volatile.execute("CREATE (:W {i: 1})").commit_lsn is None


def test_shutdown_detaches_plan_cache_subscription(small_db):
    service = QueryService(small_db)
    service.execute("MATCH (n:P) RETURN n.i AS i")
    service.shutdown()
    before = dict(service.metrics_snapshot()["counters"])
    # Direct db traffic after shutdown must not leak into the old registry.
    small_db.execute("MATCH (n:P) RETURN n.i AS i").to_list()
    replacement = QueryService(small_db)
    try:
        replacement.execute("MATCH (n:P) RETURN n.i AS i")
        assert (
            service.metrics_snapshot()["counters"].get("plan_cache.hit", 0)
            == before.get("plan_cache.hit", 0)
        )
        assert replacement.metrics_snapshot()["counters"]["plan_cache.hit"] >= 1
    finally:
        replacement.shutdown()


# ----------------------------------------------------------------------
# MVCC snapshot reads (the rwlock's replacement)
# ----------------------------------------------------------------------


def test_reads_never_tear_under_concurrent_writes(small_db):
    """Torn-read regression: with the readers-writer lock gone, a read
    overlapping a committing write must still see a complete commit or
    none of it — never half a multi-row write."""
    config = ServiceConfig(max_concurrency=6, max_pending=64, write_retries=0)
    stop = threading.Event()
    torn: list[object] = []

    with QueryService(small_db, config) as service:

        def writer(tag: int) -> None:
            batch = 0
            while not stop.is_set():
                batch += 1
                # One commit creates 3 nodes with the same marker value.
                marker = tag * 1_000_000 + batch
                service.execute(
                    "CREATE (:W {m: %d}), (:W {m: %d}), (:W {m: %d})"
                    % (marker, marker, marker)
                )

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in (1, 2)
        ]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                rows = service.execute("MATCH (n:W) RETURN n.m AS m").rows
                counts: dict[object, int] = {}
                for row in rows:
                    counts[row["m"]] = counts.get(row["m"], 0) + 1
                for marker, count in counts.items():
                    if count != 3:
                        torn.append((marker, count))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not torn, f"reads observed partial commits: {torn[:5]}"
        mvcc = service.metrics_snapshot()["mvcc"]
        assert mvcc["live_snapshots"] == 0
        assert mvcc["published_lsn"] > 0


def test_snapshot_reads_counted_and_lag_observed(small_db):
    with QueryService(small_db) as service:
        service.execute("MATCH (n:P) RETURN n.i AS i")
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.snapshot_reads"] == 1
        assert snapshot["histograms"]["service.snapshot_lag_lsns"]["count"] == 1


def test_version_gc_reclaims_after_write_burst(small_db):
    """Opportunistic GC: with no live snapshots, vacuuming collapses the
    version chains the write burst created."""
    with QueryService(small_db) as service:
        for i in range(10):
            service.execute("CREATE (:G {i: %d})" % i)
        assert small_db.store.version_stats()["record_versions"] > 0
        counters = small_db.vacuum_versions()
        assert counters["reclaimed"] > 0
        assert small_db.store.version_stats()["record_versions"] == 0
        rows = service.execute("MATCH (n:G) RETURN n.i AS i").rows
        assert sorted(row["i"] for row in rows) == list(range(10))


# ----------------------------------------------------------------------
# Cancellation token + metrics primitives
# ----------------------------------------------------------------------


def test_token_deadline_and_cancel():
    token = CancellationToken.with_timeout(None)
    token.check()  # no deadline, not cancelled: no-op
    token.cancel()
    with pytest.raises(QueryCancelledError):
        token.check()

    expired = CancellationToken.with_timeout(-1.0)
    assert expired.expired
    with pytest.raises(QueryTimeoutError):
        for _ in range(100):  # deadline is checked every few ticks
            expired.check()


def test_metrics_registry_counters_and_histograms():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc(4)
    histogram = registry.histogram("lat")
    for value in (0.001, 0.002, 0.004, 0.1):
        histogram.observe(value)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["a"] == 5
    summary = snapshot["histograms"]["lat"]
    assert summary["count"] == 4
    assert summary["min"] == pytest.approx(0.001)
    assert summary["max"] == pytest.approx(0.1)
    assert summary["mean"] == pytest.approx(0.02675)
    assert summary["p50"] <= summary["p95"] <= summary["p99"]


def test_metrics_registry_is_thread_safe():
    registry = MetricsRegistry()

    def spin():
        for _ in range(2000):
            registry.counter("n").inc()
            registry.histogram("h").observe(0.001)

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["n"] == 16000
    assert snapshot["histograms"]["h"]["count"] == 16000


def test_plan_cache_eviction_counter():
    from repro.db.plancache import CachedQuery, PlanCache

    events = []
    cache = PlanCache(capacity=2)
    cache.subscribe(events.append)
    for index in range(4):
        cache.store(
            f"q{index}",
            CachedQuery(
                analyzed=None,
                planned_parts=[],
                columns=[],
                node_count=0,
                relationship_count=0,
                index_signature=frozenset(),
            ),
        )
    assert cache.evictions == 2
    assert len(cache) == 2
    assert events.count("eviction") == 2


def test_page_cache_counters_consistent_under_threads():
    from repro.storage import PageCache

    cache = PageCache(capacity_pages=64)

    def spin(offset):
        for index in range(3000):
            cache.touch_page("f", (offset * 1000 + index) % 256)

    threads = [threading.Thread(target=spin, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = cache.stats
    assert stats.hits + stats.misses == 18000
    assert cache.resident_pages <= 64
