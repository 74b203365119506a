"""The concurrent query service: worker pool, admission control, deadlines.

:class:`QueryService` wraps one :class:`~repro.db.database.GraphDatabase`
behind a thread pool so many callers can execute Cypher concurrently:

* **Admission control** — a bounded pending queue plus a fixed worker count.
  When the queue is full, :meth:`submit` raises
  :class:`~repro.errors.ServiceOverloadedError` immediately instead of
  queueing unboundedly (load shedding, not latency hiding).
* **Deadlines and cancellation** — every query gets a
  :class:`~repro.service.cancellation.CancellationToken`; the runtime checks
  it at iterator row boundaries, so a timed-out or cancelled query stops
  mid-scan. The deadline clock starts at *submission*: time spent waiting in
  the pending queue counts against it.
* **Write retry** — transient :class:`~repro.errors.TransactionError`
  conflicts on write queries are retried with exponential backoff under a
  bounded attempt budget. Reads take no lock at all: every read query pins
  an MVCC snapshot (:meth:`~repro.db.database.GraphDatabase.snapshot`) and
  resolves records against per-record version chains at its commit LSN, so
  any number of reads run concurrently *with each other and with writers*.
  Writers serialize only with other writers, on the store's write lock.
* **Resource governance** — before dispatch each query reserves a memory
  grant from the database's :class:`~repro.resources.MemoryPool`; when the
  pool is exhausted the query waits briefly, then is shed with
  :class:`~repro.errors.MemoryLimitExceeded` (backpressure) while the
  process and every other query keep running. An optional slow-query
  watchdog cancels queries exceeding ``max_query_seconds``.
* **Metrics** — a :class:`~repro.service.metrics.MetricsRegistry` records
  planning/execution latency, rows produced, rejections, timeouts, retries,
  plan-cache traffic and page-cache deltas; see :meth:`metrics_snapshot`.

>>> service = QueryService(db, ServiceConfig(max_concurrency=4))
>>> outcome = service.execute("MATCH (n:Person) RETURN n", deadline_s=1.0)
>>> outcome.rows
[...]
>>> service.shutdown()
"""

from __future__ import annotations

import enum
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.db.database import GraphDatabase
from repro.errors import (
    MemoryLimitExceeded,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceOverloadedError,
    ServiceShutdownError,
    TransactionError,
)
from repro.planner import PlannerHints
from repro.service.cancellation import CancellationToken
from repro.service.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry

_SHUTDOWN = object()

_VERSION_GC_WRITE_INTERVAL = 64
"""Opportunistic version-GC cadence: after this many write queries the
service reclaims version chains no live snapshot can reach (checkpoints
also vacuum, so this only bounds growth between checkpoints)."""

_RETRY_BACKOFF_CAP_S = 0.25
"""Upper bound on a single write-retry backoff sleep."""

_GRANT_WAIT_S = 5.0
"""How long a deadline-less query waits at dispatch for a memory grant
before it is shed with backpressure (queries with a deadline wait at most
their remaining time)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`."""

    max_concurrency: int = 4
    """Worker threads executing queries simultaneously."""

    max_pending: int = 16
    """Admitted-but-not-started queries; beyond this, submissions are
    rejected with :class:`ServiceOverloadedError`."""

    default_deadline_s: Optional[float] = None
    """Deadline applied when a query specifies none (None = unlimited)."""

    write_retries: int = 3
    """Retry attempts (beyond the first try) for transient write conflicts."""

    retry_backoff_s: float = 0.01
    """Initial backoff before the first retry; doubles per attempt."""

    memory_grant_bytes: Optional[int] = None
    """Admission grant reserved from the database's memory pool before a
    query is dispatched to a worker (also its spill threshold). ``None``
    uses the pool's default grant. Irrelevant for unbounded pools."""

    max_query_seconds: Optional[float] = None
    """Slow-query ceiling: a watchdog thread cancels (via the query's
    ``CancellationToken``) any query running longer than this. ``None``
    disables the watchdog."""

    watchdog_interval_s: float = 0.05
    """How often the slow-query watchdog scans in-flight queries."""

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be positive")
        if self.max_pending < 1:
            raise ValueError("max_pending must be positive")
        if self.memory_grant_bytes is not None and self.memory_grant_bytes <= 0:
            raise ValueError("memory_grant_bytes must be positive")
        if self.max_query_seconds is not None and self.max_query_seconds <= 0:
            raise ValueError("max_query_seconds must be positive")
        if self.watchdog_interval_s <= 0:
            raise ValueError("watchdog_interval_s must be positive")


class QueryStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"


@dataclass
class QueryOutcome:
    """A completed query's rows plus its per-query statistics."""

    rows: list[dict] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    total_seconds: float = 0.0
    queue_seconds: float = 0.0
    attempts: int = 1
    max_intermediate_cardinality: int = 0
    page_cache_hits: int = 0
    page_cache_misses: int = 0
    peak_memory_bytes: int = 0
    spill_runs: int = 0
    commit_lsn: Optional[int] = None
    """Log sequence number of the commit a write query produced (a
    read-your-writes token); ``None`` for reads, non-durable databases,
    and writes that changed nothing."""

    @property
    def row_count(self) -> int:
        return len(self.rows)


class QueryTicket:
    """Handle for one submitted query: await, inspect, or cancel it."""

    def __init__(
        self,
        query: str,
        hints: Optional[PlannerHints],
        token: CancellationToken,
        submitted_at: float,
    ) -> None:
        self.query = query
        self.hints = hints
        self.token = token
        self.submitted_at = submitted_at
        self.status = QueryStatus.PENDING
        self.rows_produced = 0
        """Rows the query emitted before completing or being stopped."""
        self._done = threading.Event()
        self._outcome: Optional[QueryOutcome] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (effective at the next row
        boundary, or before the query starts if still queued)."""
        self.token.cancel()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> QueryOutcome:
        """Block until the query finishes; return its outcome or re-raise
        its error (:class:`QueryTimeoutError` for deadline expiry)."""
        if not self._done.wait(timeout):
            raise TimeoutError("query still running")
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    # Internal completion hooks -----------------------------------------

    def _succeed(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self.rows_produced = outcome.row_count
        self.status = QueryStatus.SUCCEEDED
        self._done.set()

    def _fail(self, error: BaseException, status: QueryStatus) -> None:
        self._error = error
        self.status = status
        self._done.set()


class QueryService:
    """A bounded-concurrency query front-end over one database."""

    def __init__(
        self, db: GraphDatabase, config: Optional[ServiceConfig] = None
    ) -> None:
        self.db = db
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        # The queue itself is unbounded; admission control is enforced by
        # _pending_count under _lock, so shutdown's sentinel puts can never
        # block behind a full queue.
        self._pending: queue.Queue = queue.Queue()
        # _lock guards _shutdown, _pending_count and _in_flight, and makes
        # submit's shutdown-check + enqueue atomic against shutdown's
        # flag-set + drain + sentinel puts (a ticket can never land behind
        # the sentinels and hang its caller).
        self._lock = threading.Lock()
        self._shutdown = False
        self._pending_count = 0
        self._in_flight = 0
        # Plan-cache traffic feeds the registry as it happens; detached
        # again in shutdown() so replaced or parallel services never steal
        # each other's events.
        db.plan_cache.subscribe(self._plan_cache_event)
        # Pool/spill counters stream into this service's registry; detached
        # in shutdown() like the plan-cache subscription.
        db.memory_pool.bind_metrics(self.metrics)
        # In-flight tickets (id -> (ticket, dispatch time)) for the
        # slow-query watchdog; guarded by _lock.
        self._running: dict[int, tuple[QueryTicket, float]] = {}
        # Write-query countdown to the next opportunistic version GC.
        self._writes_until_gc = _VERSION_GC_WRITE_INTERVAL
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"query-service-worker-{index}",
                daemon=True,
            )
            for index in range(self.config.max_concurrency)
        ]
        for worker in self._workers:
            worker.start()
        # Slow-query watchdog: cancels queries running past the ceiling.
        self._watchdog_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if self.config.max_query_seconds is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="query-service-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: str,
        hints: Optional[PlannerHints] = None,
        deadline_s: Optional[float] = None,
    ) -> QueryTicket:
        """Admit a query for asynchronous execution.

        Raises :class:`ServiceOverloadedError` when the pending queue is
        full and :class:`ServiceShutdownError` after :meth:`shutdown`. The
        deadline clock starts now — queue wait counts against it.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        ticket = QueryTicket(
            query,
            hints,
            CancellationToken.with_timeout(deadline_s),
            submitted_at=time.monotonic(),
        )
        with self._lock:
            if self._shutdown:
                raise ServiceShutdownError("query service has been shut down")
            admitted = self._pending_count < self.config.max_pending
            if admitted:
                self._pending_count += 1
                self._pending.put(ticket)
        if not admitted:
            self.metrics.counter("service.admission_rejections").inc()
            raise ServiceOverloadedError(
                f"pending queue full ({self.config.max_pending} queries "
                f"waiting, {self.config.max_concurrency} running)"
            )
        self.metrics.counter("service.queries_submitted").inc()
        return ticket

    def execute(
        self,
        query: str,
        hints: Optional[PlannerHints] = None,
        deadline_s: Optional[float] = None,
    ) -> QueryOutcome:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(query, hints, deadline_s).result()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop admitting queries and drain workers (idempotent).

        By default queued queries still execute before the workers exit.
        With ``cancel_pending=True`` the pending queue is shed instead —
        queued tickets fail immediately with
        :class:`ServiceShutdownError` — *and* every in-flight query's
        cancellation token is triggered, so shutdown can never hang behind
        a slow query (it stops at its next cancellation check and its
        ticket fails with :class:`~repro.errors.QueryCancelledError`).
        """
        with self._lock:
            first = not self._shutdown
            self._shutdown = True
            shed: list[QueryTicket] = []
            cancelled_running: list[QueryTicket] = []
            if cancel_pending:
                sentinels = 0
                while True:
                    try:
                        item = self._pending.get_nowait()
                    except queue.Empty:
                        break
                    if item is _SHUTDOWN:
                        sentinels += 1
                    else:
                        shed.append(item)
                self._pending_count -= len(shed)
                for _ in range(sentinels):
                    self._pending.put(_SHUTDOWN)
                cancelled_running = [
                    ticket
                    for ticket, _ in self._running.values()
                    if not ticket.token.cancelled
                ]
            if first:
                # The queue is unbounded, so these puts cannot block even
                # when max_pending tickets are still queued ahead of them.
                for _ in self._workers:
                    self._pending.put(_SHUTDOWN)
        for ticket in shed:
            self.metrics.counter("service.shed_on_shutdown").inc()
            ticket._fail(
                ServiceShutdownError("query service shut down before start"),
                QueryStatus.CANCELLED,
            )
        for ticket in cancelled_running:
            self.metrics.counter("service.cancelled_on_shutdown").inc()
            ticket.token.cancel()
        if first:
            self.db.plan_cache.unsubscribe(self._plan_cache_event)
            self.db.memory_pool.unbind_metrics(self.metrics)
            self._watchdog_stop.set()
        if wait:
            for worker in self._workers:
                worker.join()
            if self._watchdog is not None:
                self._watchdog.join()
            # Workers are drained; any spill file still on disk is an
            # orphan (e.g. a simulated crash mid-spill) — reclaim it.
            self.db.spill_manager.sweep()

    def swap_database(self, new_db: GraphDatabase) -> GraphDatabase:
        """Atomically replace the served database object.

        The replica uses this when catch-up installs a shipped checkpoint:
        queries already executing finish against the old object (their
        snapshots stay pinned to its store); every later submission plans
        and runs against the new one. Metric/plan-cache subscriptions move
        over; the old database is returned for the caller to close.
        """
        with self._lock:
            old = self.db
            self.db = new_db
        old.plan_cache.unsubscribe(self._plan_cache_event)
        old.memory_pool.unbind_metrics(self.metrics)
        new_db.plan_cache.subscribe(self._plan_cache_event)
        new_db.memory_pool.bind_metrics(self.metrics)
        self.metrics.counter("service.database_swaps").inc()
        return old

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Counters + histogram summaries + live cache/service gauges."""
        snapshot = self.metrics.snapshot()
        page_stats = self.db.page_cache.stats
        # Hits: queries answered without planning (a new text of a cached
        # shape included). Misses: plannings.
        snapshot["plan_cache"] = self.db.plan_cache.counters()
        # Commits that re-plan Algorithm 1 show up here as misses or
        # invalidations per commit instead of hits.
        snapshot["maintenance_plan_cache"] = (
            self.db.maintenance_plan_cache.counters()
        )
        snapshot["page_cache"] = {
            "hits": page_stats.hits,
            "misses": page_stats.misses,
            "evictions": page_stats.evictions,
            "hit_ratio": page_stats.hit_ratio,
        }
        with self._lock:
            snapshot["service"] = {
                "workers": self.config.max_concurrency,
                "pending": self._pending_count,
                "in_flight": self._in_flight,
                "shutdown": self._shutdown,
            }
        snapshot["memory"] = self.db.memory_pool.snapshot()
        mvcc = self.db.store.mvcc
        snapshot["mvcc"] = {
            "published_lsn": mvcc.published,
            "live_snapshots": mvcc.live_count(),
            **self.db.store.version_stats(),
        }
        if self.db.durability is not None:
            snapshot["durability"] = self.db.durability.status()
        return snapshot

    def _plan_cache_event(self, event: str) -> None:
        self.metrics.counter(f"plan_cache.{event}").inc()

    # ------------------------------------------------------------------
    # Slow-query watchdog
    # ------------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Cancel in-flight queries exceeding ``max_query_seconds``.

        Cancellation is cooperative (the runtime checks the token at row
        boundaries or every few loop iterations), so a runaway query stops
        at its next check and
        surfaces as ``QueryStatus.CANCELLED``.
        """
        ceiling = self.config.max_query_seconds
        assert ceiling is not None
        while not self._watchdog_stop.wait(self.config.watchdog_interval_s):
            now = time.monotonic()
            with self._lock:
                overdue = [
                    ticket
                    for ticket, dispatched in self._running.values()
                    if now - dispatched > ceiling and not ticket.token.cancelled
                ]
            for ticket in overdue:
                self.metrics.counter("service.watchdog_cancels").inc()
                ticket.token.cancel()

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._pending.get()
            if item is _SHUTDOWN:
                return
            with self._lock:
                self._pending_count -= 1
                self._in_flight += 1
            try:
                self._run_ticket(item)
            finally:
                with self._lock:
                    self._in_flight -= 1

    def _run_ticket(self, ticket: QueryTicket) -> None:
        started = time.monotonic()
        queue_seconds = started - ticket.submitted_at
        self.metrics.histogram("service.queue_seconds").observe(queue_seconds)
        token = ticket.token
        if token.cancelled:
            self.metrics.counter("service.cancellations").inc()
            ticket._fail(QueryCancelledError(), QueryStatus.CANCELLED)
            return
        if token.expired:
            # The deadline expired while the query waited for a worker.
            self.metrics.counter("service.timeouts").inc()
            ticket._fail(
                QueryTimeoutError("deadline expired in the pending queue"),
                QueryStatus.TIMED_OUT,
            )
            return
        ticket.status = QueryStatus.RUNNING
        pool = self.db.memory_pool
        # Admission control for memory: reserve the query's grant before it
        # touches a worker's CPU. The wait is bounded (remaining deadline,
        # or a few seconds for deadline-less queries) so an exhausted pool
        # sheds load with backpressure instead of queueing forever.
        try:
            wait_s = token.remaining()
            reserved = pool.reserve_grant(
                self.config.memory_grant_bytes,
                timeout_s=_GRANT_WAIT_S if wait_s is None else wait_s,
                token=token,
            )
        except MemoryLimitExceeded as exc:
            if token.cancelled:
                self.metrics.counter("service.cancellations").inc()
                ticket._fail(QueryCancelledError(), QueryStatus.CANCELLED)
            else:
                self.metrics.counter("service.memory_rejections").inc()
                ticket._fail(exc, QueryStatus.FAILED)
            return
        tracker = pool.tracker(
            label=f"service:{ticket.query[:48]}",
            grant_bytes=self.config.memory_grant_bytes,
            spill_manager=self.db.spill_manager,
            reserved_bytes=reserved,
        )
        with self._lock:
            self._running[id(ticket)] = (ticket, time.monotonic())
        try:
            outcome = self._execute_with_retry(ticket, queue_seconds, tracker)
        except QueryTimeoutError as exc:
            self.metrics.counter("service.timeouts").inc()
            ticket.rows_produced = exc.rows_produced
            ticket._fail(exc, QueryStatus.TIMED_OUT)
        except QueryCancelledError as exc:
            self.metrics.counter("service.cancellations").inc()
            ticket.rows_produced = exc.rows_produced
            ticket._fail(exc, QueryStatus.CANCELLED)
        except MemoryLimitExceeded as exc:
            # The query outgrew the pool mid-flight; it was rolled back
            # (writes) or abandoned (reads) — the process and every other
            # query keep running.
            self.metrics.counter("service.memory_rejections").inc()
            ticket._fail(exc, QueryStatus.FAILED)
        except BaseException as exc:  # noqa: BLE001 - report to the caller
            self.metrics.counter("service.failures").inc()
            ticket._fail(exc, QueryStatus.FAILED)
        else:
            self.metrics.counter("service.queries_completed").inc()
            ticket._succeed(outcome)
        finally:
            with self._lock:
                self._running.pop(id(ticket), None)
            tracker.close()

    def _execute_with_retry(
        self, ticket: QueryTicket, queue_seconds: float, tracker
    ) -> QueryOutcome:
        db = self.db
        plan_started = time.perf_counter()
        cached = db.prepare(ticket.query, ticket.hints)
        planning_seconds = time.perf_counter() - plan_started
        self.metrics.histogram("service.planning_seconds").observe(
            planning_seconds
        )
        is_write = cached.analyzed.is_write
        attempts = 0
        while True:
            attempts += 1
            try:
                outcome = self._execute_once(ticket, cached, is_write, tracker)
                break
            except TransactionError:
                if not is_write or attempts > self.config.write_retries:
                    raise
                self.metrics.counter("service.retries").inc()
                self._backoff(ticket.token, attempts)
        outcome.planning_seconds = planning_seconds
        outcome.queue_seconds = queue_seconds
        outcome.attempts = attempts
        outcome.peak_memory_bytes = tracker.peak_bytes
        outcome.spill_runs = tracker.spill_runs
        self.metrics.histogram("service.peak_memory_bytes").observe(
            tracker.peak_bytes
        )
        outcome.total_seconds = (
            queue_seconds + planning_seconds + outcome.execution_seconds
        )
        self.metrics.histogram("service.execution_seconds").observe(
            outcome.execution_seconds
        )
        self.metrics.histogram(
            "service.rows_produced", DEFAULT_COUNT_BUCKETS
        ).observe(outcome.row_count)
        self.metrics.counter("service.rows_total").inc(outcome.row_count)
        if is_write:
            self.metrics.counter("service.write_queries").inc()
        else:
            self.metrics.counter("service.read_queries").inc()
        return outcome

    def _execute_once(
        self, ticket: QueryTicket, cached, is_write: bool, tracker
    ) -> QueryOutcome:
        db = self.db
        # Page-cache deltas are approximate under concurrency (the cache is
        # shared); they remain exact for single-worker services and useful
        # in aggregate otherwise.
        before = db.page_cache.stats.snapshot()
        execution_started = time.perf_counter()
        # MVCC: reads pin a snapshot and resolve version chains at its
        # commit LSN — no lock, no waiting on writers, no torn state.
        # Writes serialize with other writes on the store's write lock,
        # acquired inside the transaction itself (db.execute).
        durability = db.durability
        if is_write:
            # Group commit: while the transaction holds the write lock the
            # commit only *appends* its log record (deferred_sync); the
            # fsync happens after the lock is released, so concurrent
            # writers queue up behind one leader's fsync instead of each
            # paying their own.
            if durability is not None:
                with durability.deferred_sync():
                    result = db.execute(
                        ticket.query,
                        ticket.hints,
                        token=ticket.token,
                        prepared=cached,
                        tracker=tracker,
                    )
                    rows = self._drain(result, ticket)
            else:
                result = db.execute(
                    ticket.query,
                    ticket.hints,
                    token=ticket.token,
                    prepared=cached,
                    tracker=tracker,
                )
                rows = self._drain(result, ticket)
            if durability is not None:
                sync_started = time.perf_counter()
                durability.sync_pending()
                self.metrics.histogram("durability.sync_seconds").observe(
                    time.perf_counter() - sync_started
                )
            self._maybe_vacuum_versions()
        else:
            # Planning happened at latest (prepare); execution and drain
            # resolve at the snapshot's LSN. Acquiring is a dict insert —
            # readers never block writers and vice versa.
            with db.snapshot() as snap:
                self.metrics.counter("service.snapshot_reads").inc()
                result = db.execute(
                    ticket.query,
                    ticket.hints,
                    token=ticket.token,
                    prepared=cached,
                    tracker=tracker,
                )
                rows = self._drain(result, ticket)
            self.metrics.histogram("service.snapshot_lag_lsns").observe(
                db.store.mvcc.published - snap.lsn
            )
        execution_seconds = time.perf_counter() - execution_started
        delta = db.page_cache.stats.delta_since(before)
        self.metrics.histogram(
            "service.page_hits_per_query", DEFAULT_COUNT_BUCKETS
        ).observe(delta.hits)
        self.metrics.histogram(
            "service.page_misses_per_query", DEFAULT_COUNT_BUCKETS
        ).observe(delta.misses)
        return QueryOutcome(
            rows=rows,
            columns=result.columns,
            execution_seconds=execution_seconds,
            max_intermediate_cardinality=result.max_intermediate_cardinality,
            page_cache_hits=delta.hits,
            page_cache_misses=delta.misses,
            commit_lsn=result.commit_lsn,
        )

    def _maybe_vacuum_versions(self) -> None:
        """Every N writes, reclaim version chains behind the oldest live
        snapshot (and fold index deltas when no snapshot is live)."""
        with self._lock:
            self._writes_until_gc -= 1
            if self._writes_until_gc > 0:
                return
            self._writes_until_gc = _VERSION_GC_WRITE_INTERVAL
        counters = self.db.vacuum_versions()
        self.metrics.counter("storage.version_gc_runs").inc()
        self.metrics.counter("storage.versions_reclaimed").inc(
            counters["reclaimed"]
        )
        self.metrics.counter("storage.versions_folded").inc(counters["folded"])

    @staticmethod
    def _drain(result, ticket: QueryTicket) -> list[dict]:
        """Materialize rows, attaching the partial count on cancellation."""
        rows: list[dict] = []
        try:
            for row in result:
                rows.append(row)
                ticket.rows_produced = len(rows)
        except QueryCancelledError as exc:
            exc.rows_produced = len(rows)
            raise
        return rows

    def _backoff(self, token: CancellationToken, attempt: int) -> None:
        """Exponential backoff, truncated by the query's deadline."""
        delay = min(
            self.config.retry_backoff_s * (2 ** (attempt - 1)),
            _RETRY_BACKOFF_CAP_S,
        )
        remaining = token.remaining()
        if remaining is not None:
            if remaining <= 0:
                raise QueryTimeoutError("deadline expired between retries")
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)
        token.check()
