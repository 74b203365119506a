"""The embedded graph database: the library's main entry point.

Wires together every subsystem of the reproduction — record stores on a
simulated page cache, transactions with path-index maintenance appliers,
the Cypher front-end, the cost-based planner with path-index support, and
the iterator runtime — behind a compact public API:

>>> db = GraphDatabase()
>>> with db.begin() as tx:
...     a = tx.create_node([db.label("Person")])
...     tx.success()
>>> result = db.execute("MATCH (n:Person) RETURN n")
>>> rows = result.to_list()
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, Optional, Union

from repro.cypher import parse
from repro.cypher.lexer import literal_shape
from repro.cypher.parser import parse_shape
from repro.db.plancache import CachedQuery, PlanCache, Planning
from repro.db.result import Result
from repro.errors import PathIndexError, ReproError
from repro.pathindex.index import PathIndex
from repro.pathindex.initialization import InitializationStats, initialize_index
from repro.pathindex.maintenance import QUERY_BASED, PathIndexMaintainer
from repro.pathindex.pattern import PathPattern
from repro.pathindex.store import PathIndexStore
from repro.planner import PlannerHints
from repro.resources import MemoryPool, SpillManager
from repro.runtime import Executor
from repro.storage import GraphStore, PageCache
from repro.storage.graphstore import DEFAULT_DENSE_NODE_THRESHOLD
from repro.storage.pagecache import DEFAULT_MISS_LATENCY_S, DEFAULT_PAGE_SIZE
from repro.storage.versions import PENDING, Snapshot
from repro.tx import Transaction, TransactionManager

IndexCreationStats = InitializationStats


@dataclass
class SizeReport:
    """Disk footprint, indexes reported separately (§6.3)."""

    graph_bytes: int
    index_bytes: dict[str, int]

    @property
    def total_index_bytes(self) -> int:
        return sum(self.index_bytes.values())


class GraphDatabase:
    """An embedded property-graph database with path indexes."""

    def __init__(
        self,
        page_cache_pages: int = 1 << 20,
        page_size: int = DEFAULT_PAGE_SIZE,
        miss_latency_s: float = DEFAULT_MISS_LATENCY_S,
        dense_node_threshold: int = DEFAULT_DENSE_NODE_THRESHOLD,
        maintenance_strategy: str = QUERY_BASED,
        memory_budget: Optional[int] = None,
        memory_grant: Optional[int] = None,
    ) -> None:
        self.page_cache = PageCache(page_cache_pages, page_size, miss_latency_s)
        self.store = GraphStore(self.page_cache, dense_node_threshold)
        self.indexes = PathIndexStore(self.page_cache, clock=self.store.mvcc)
        # Commits stamp path-index overlay deltas with their LSN, and the
        # version GC folds them into the trees when no snapshot is live.
        self.store.register_publisher(self.indexes)
        self.tx_manager = TransactionManager(self.store)
        self.maintainer = PathIndexMaintainer(
            self.store,
            self.indexes,
            tx_manager=self.tx_manager,
            strategy=maintenance_strategy,
        )
        self.tx_manager.register_applier(self.maintainer)
        # The §4.1.1 query cache, keyed by query text and by the text's
        # shape (see repro.db.plancache). Maintenance queries bypass it by
        # design: their texts live in the maintainer's own instance, where
        # ad-hoc texts cannot evict them.
        self.plan_cache = PlanCache()
        self.maintenance_plan_cache = self.maintainer.queries.plan_cache
        #: Set by :meth:`open` — the durability engine persisting commits to
        #: a write-ahead log. ``None`` for purely in-memory databases.
        self.durability = None
        # Resource governance: the process-wide memory budget shared by
        # every query of this database, and the spill-file manager the
        # blocking operators write through once a query exceeds its grant.
        # ``memory_budget=None`` (and no REPRO_MEMORY_BUDGET) means
        # unbounded: memory is tracked but never denied and never spilled.
        if memory_budget is None:
            env = os.environ.get("REPRO_MEMORY_BUDGET")
            memory_budget = int(env) if env else None
        if memory_grant is None:
            env = os.environ.get("REPRO_MEMORY_GRANT")
            memory_grant = int(env) if env else None
        self.memory_pool = MemoryPool(memory_budget, memory_grant)
        self.spill_manager = SpillManager()
        self._register_cache_gauges()

    @property
    def execution_mode(self) -> str:
        """Always ``"compiled"``: every plan runs as generated code. Kept,
        read-only, with ``Executor.execute``'s ``mode``, as the seam
        perfbench's traced pass still reads, until the product traces
        itself."""
        return "compiled"

    def _register_cache_gauges(self) -> None:
        """Account the long-lived shared caches in the pool snapshot."""
        self.memory_pool.register_gauge(
            "plan_cache_bytes", self.plan_cache.approx_bytes
        )
        self.memory_pool.register_gauge(
            "page_cache_bytes",
            lambda: self.page_cache.resident_pages * self.page_cache.page_size,
        )

    def set_memory_budget(
        self, budget_bytes: Optional[int], grant_bytes: Optional[int] = None
    ) -> MemoryPool:
        """Swap in a fresh :class:`MemoryPool` (tests, live reconfiguration).

        Queries already holding grants keep them against the old pool;
        only new queries see the new budget. Returns the new pool.
        """
        self.memory_pool = MemoryPool(budget_bytes, grant_bytes)
        self._register_cache_gauges()
        return self.memory_pool

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory,
        durability_config=None,
        fault_injector=None,
        **kwargs,
    ) -> "GraphDatabase":
        """Open (creating or recovering) a *durable* database at ``directory``.

        Commits are written to a CRC-checksummed write-ahead log and
        fsynced with group commit; :meth:`checkpoint` (or the automatic
        thresholds in ``durability_config``) compacts the log into an
        atomic snapshot. Re-opening after a crash replays the last
        checkpoint plus the log's valid prefix — a torn or corrupt tail is
        discarded, so recovery always lands on a prefix of the committed
        transactions. Keyword arguments match the constructor; the ones
        that shape stored records (``page_size``, ``dense_node_threshold``)
        are taken from the existing checkpoint when re-opening.
        """
        from repro.durability.engine import DurabilityEngine

        return DurabilityEngine.open_database(
            directory,
            config=durability_config,
            injector=fault_injector,
            **kwargs,
        )

    def checkpoint(self) -> None:
        """Force a checkpoint (snapshot + log truncation) now."""
        if self.durability is None:
            raise ReproError("database was not opened with GraphDatabase.open")
        self.durability.checkpoint()

    def close(self) -> None:
        """Flush and release durability resources and spill files."""
        if self.durability is not None:
            self.durability.close()
        self.spill_manager.close()

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------

    def label(self, name: str) -> int:
        """Token id for a label, creating it if needed."""
        return self.store.labels.get_or_create(name)

    def relationship_type(self, name: str) -> int:
        return self.store.types.get_or_create(name)

    def property_key(self, name: str) -> int:
        return self.store.property_keys.get_or_create(name)

    # ------------------------------------------------------------------
    # Transactions and direct write API
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction on the calling thread."""
        return self.tx_manager.begin()

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------

    @contextmanager
    def snapshot(self) -> Iterator[Snapshot]:
        """Pin the current committed state for lock-free reading.

        Inside the block, every read on this thread — queries on either
        engine, direct store reads, index scans, statistics —
        resolves at the snapshot's commit LSN, untouched by concurrent
        writers. Acquiring a snapshot takes no lock; writers never wait
        for readers and readers never wait for writers.
        """
        clock = self.store.mvcc
        # Bulk loaders (dataset generators, restore helpers) write to the
        # store directly outside any transaction, leaving PENDING versions
        # with no commit to publish them. Adopt such orphans before
        # pinning: when no writer is active the non-blocking acquire
        # succeeds and we stamp them under a fresh LSN; when a writer IS
        # active the pending versions belong to it and its own commit
        # publishes them.
        if self.store.has_pending_versions() and self.tx_manager.current() is None:
            if clock.write_lock.acquire(blocking=False):
                try:
                    self.store.publish_commit()
                finally:
                    clock.write_lock.release()
        snap = clock.acquire()
        try:
            with clock.reading(snap):
                yield snap
        finally:
            clock.release(snap)

    def vacuum_versions(self) -> dict[str, int]:
        """Reclaim version chains and fold index deltas no live snapshot
        can reach (runs automatically at checkpoints). Returns counters."""
        with self.store.mvcc.exclusive_writer():
            return self.store.collect_versions()

    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[dict[str, object]] = None,
    ) -> int:
        """Create a node in its own transaction (or the open one)."""
        with self._write_tx() as (tx, own):
            node_id = tx.create_node([self.label(name) for name in labels])
            for key, value in _set(properties):
                tx.set_node_property(node_id, self.property_key(key), value)
            if own:
                tx.success()
        return node_id

    def create_relationship(
        self,
        start: int,
        end: int,
        type_name: str,
        properties: Optional[dict[str, object]] = None,
    ) -> int:
        with self._write_tx() as (tx, own):
            rel_id = tx.create_relationship(
                start, end, self.relationship_type(type_name)
            )
            for key, value in _set(properties):
                tx.set_relationship_property(rel_id, self.property_key(key), value)
            if own:
                tx.success()
        return rel_id

    def delete_relationship(self, rel_id: int) -> None:
        with self._write_tx() as (tx, own):
            tx.delete_relationship(rel_id)
            if own:
                tx.success()

    def add_label(self, node_id: int, label: str) -> None:
        with self._write_tx() as (tx, own):
            tx.add_label(node_id, self.label(label))
            if own:
                tx.success()

    def remove_label(self, node_id: int, label: str) -> None:
        with self._write_tx() as (tx, own):
            tx.remove_label(node_id, self.label(label))
            if own:
                tx.success()

    def _write_tx(self):
        """Context yielding ``(transaction, owns_it)``."""
        database = self

        class _Ctx:
            def __enter__(self):
                current = database.tx_manager.current()
                if current is not None:
                    self.tx, self.own = current, False
                else:
                    self.tx, self.own = database.tx_manager.begin(), True
                return self.tx, self.own

            def __exit__(self, exc_type, exc, tb):
                if self.own:
                    if exc_type is not None:
                        self.tx.failure()
                    if not self.tx.closed:
                        self.tx.close()

        return _Ctx()

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(
        self,
        query_text: str,
        hints: Optional[PlannerHints] = None,
        token: Optional[object] = None,
        prepared: Optional[CachedQuery] = None,
        tracker: Optional[object] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> Result:
        """Parse, plan and run a Cypher query; returns a timed Result.

        ``params`` binds the text's ``$name`` parameters (int, float, str,
        bool or None values); a name missing from it, or one the text does
        not use, raises before planning. Texts differing only in literal
        or parameter values share one plan (see :mod:`repro.db.plancache`).

        Read-only queries stream lazily; update queries apply their writes
        (committing an implicit transaction unless one is already open) and
        return materialized rows. ``token`` is an optional cooperative
        cancellation token (``repro.service.CancellationToken``) checked
        while rows flow; a cancelled/timed-out write rolls back.
        ``prepared`` (from :meth:`prepare`) skips the plan-cache lookup —
        the service layer uses it so planning is looked up and timed
        exactly once. A plan compiles on its first execution; later ones
        reuse the generated code. ``tracker`` is an optional
        :class:`~repro.resources.MemoryTracker` whose grant the caller
        already reserved (the service layer); without one, the query
        reserves its own grant from :attr:`memory_pool` and releases it
        when the rows stop: drained, closed, or abandoned. A query whose non-spillable buffers
        exhaust the pool raises
        :class:`~repro.errors.MemoryLimitExceeded`; for writes the
        implicit transaction rolls back first.
        """
        submitted = time.perf_counter()
        cached = (
            prepared
            if prepared is not None
            else self.prepare(query_text, hints, params)
        )
        executor = Executor(
            self.store, self.indexes, cached.analyzed.variable_kinds
        )
        own_tracker = tracker is None
        if own_tracker:
            tracker = self.memory_pool.tracker(
                label="query", spill_manager=self.spill_manager
            )
        if not cached.analyzed.is_write:
            try:
                rows, profile = executor.execute(
                    cached.planned_parts,
                    token=token,
                    tracker=tracker,
                    release=own_tracker,
                )
            except BaseException:
                if own_tracker:
                    tracker.close()
                raise
            return Result(rows, cached.columns, profile, submitted)
        durability = self.durability
        if durability is not None:
            durability.begin_lsn_capture()
        try:
            with self._write_tx() as (tx, own):
                rows, profile = executor.execute(
                    cached.planned_parts,
                    transaction=tx,
                    token=token,
                    tracker=tracker,
                )
                materialized = list(rows)
                if own:
                    tx.success()
        finally:
            if own_tracker:
                tracker.close()
        result = Result(iter(materialized), cached.columns, profile, submitted)
        if durability is not None:
            # The commit's LSN (logged during the transaction close above on
            # this same thread) is the caller's read-your-writes token.
            result.commit_lsn = durability.captured_lsn()
        return result

    def compiled_source(
        self,
        query_text: str,
        hints: Optional[PlannerHints] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> str:
        """The generated Python pipeline source for a query (the shell's
        ``:source`` meta-command). Compiles the cached plan now, unless an
        execution already did. The source
        reads parameter slots as ``_params[i]``: it is the shape's."""
        cached = self.prepare(query_text, hints, params)
        executor = Executor(
            self.store, self.indexes, cached.analyzed.variable_kinds
        )
        return executor.compile(cached.planned_parts).source()

    def prepare(
        self,
        query_text: str,
        hints: Optional[PlannerHints] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> CachedQuery:
        """Analyze and plan a query without running it — the service layer
        uses this to classify reads vs. writes and to time planning
        separately from execution. Through the §4.1.1 query cache: the
        text first (one lookup, no key computation), then its shape."""
        # Bound values are not part of the text, so only texts without
        # ``params`` have an entry of their own.
        text_key = None if params else (query_text, hints)
        return self.plan_cache.fetch(
            text_key,
            self.store,
            self.indexes,
            lambda planning: self._by_shape(planning, query_text, hints, params),
        )

    @staticmethod
    def _by_shape(planning, query_text, hints, params) -> CachedQuery:
        """A text's entry when the text has none: its shape's plan bound to
        its literal values, the shape planned if it is new.

        A text whose literals cannot share a plan is planned with them,
        leaving only its ``$name`` slots. Run with ``params`` it has no
        text key, so that plan is kept under the text and its shape (the
        shape tags each ``$name`` with its type class)."""
        shape, values, named = literal_shape(query_text, params)
        if not values:
            return planning.plan(parse(query_text), hints)
        shape_key = (shape, hints)
        entry = planning.lookup(shape_key)
        if entry is not None:
            return entry.bind(values)
        own_key = (query_text, shape, hints) if params else None
        entry = None if own_key is None else planning.lookup(own_key)
        if entry is None:
            # A $name slot's tag is (name, type class).
            kinds = dict(tag for tag in shape[1::2] if isinstance(tag, tuple))
            query, shared = parse_shape(query_text, kinds)
            entry = planning.plan(query, hints)
            if shared:
                planning.keep(shape_key, entry)
                return entry.bind(values)
            if own_key is not None:
                planning.keep(own_key, entry)
        named_values = tuple(compress(values, named))
        return entry.bind(named_values) if named_values else entry

    def explain(self, query_text: str, hints: Optional[PlannerHints] = None) -> str:
        """The logical plan for a query, rendered as a tree (planned
        afresh, not looked up)."""
        planning = Planning(self.plan_cache, self.store, self.indexes)
        planned = planning.plan(parse(query_text), hints).planned_parts
        return "\n".join(plan.render() for _, plan in planned)

    # ------------------------------------------------------------------
    # Path indexes
    # ------------------------------------------------------------------

    def create_path_index(
        self,
        name: str,
        pattern: Union[str, PathPattern],
        populate: bool = True,
        hints: Optional[PlannerHints] = None,
        partial: bool = False,
    ) -> InitializationStats:
        """Register a path index and (by default) initialize it from the
        existing data (Algorithm 2).

        ``partial=True`` creates a §4.1 partially materialized index: it
        starts empty, fills itself per queried seek prefix, and is offered
        to the planner only through PathIndexPrefixSeek.
        """
        if isinstance(pattern, str):
            pattern = PathPattern.parse(pattern)
        # DDL is a writer: it serializes behind transactions on the store
        # write lock and builds the index invisibly (created_lsn pending),
        # writing the tree directly. Sealing attaches it at the current
        # published LSN — snapshots pinned before that never see it, and
        # from then on commits maintain it through versioned overlay
        # deltas instead of mutating the shared tree.
        with self.store.mvcc.exclusive_writer():
            index = self.indexes.create(name, pattern, partial=partial)
            index.created_lsn = PENDING
            self._index_set_changed()
            if self.durability is not None:
                self.durability.log_ddl(
                    "create_index", name, str(pattern), partial, populate
                )
            if populate and not partial:
                tracker = self.memory_pool.tracker(
                    label=f"index build: {name}",
                    spill_manager=self.spill_manager,
                )
                try:
                    stats = initialize_index(
                        self.maintainer.queries, index, hints, tracker=tracker
                    )
                except BaseException:
                    # A build that blows the memory budget must not leave a
                    # half-populated index behind (nor a dangling WAL record).
                    self.drop_path_index(name)
                    raise
                finally:
                    tracker.close()
                index.seal(self.store.mvcc.published)
                return stats
            index.seal(self.store.mvcc.published)
            return InitializationStats(
                index_name=name,
                cardinality=0,
                size_on_disk=index.size_on_disk(),
                total_data_size=0,
                seconds=0.0,
            )

    def create_relationship_type_index(self, type_name: str) -> InitializationStats:
        """The §6.1 baseline extension: a label-free single-relationship
        index enabling RelationshipByTypeScan."""
        name = f"type:{type_name}"
        return self.create_path_index(name, f"()-[:{type_name}]->()")

    def drop_path_index(self, name: str) -> None:
        # Registry removal under the write lock; in-flight readers holding
        # the index object keep scanning it safely (the tree is untouched),
        # and no cached plan naming it survives the DDL.
        with self.store.mvcc.exclusive_writer():
            self.indexes.drop(name)
            self._index_set_changed()
            if self.durability is not None:
                self.durability.log_ddl("drop_index", name, "")

    def _index_set_changed(self) -> None:
        """Index DDL, under the exclusive-writer lock: drop every cached
        plan and maintenance route. The visible-names signature alone
        cannot tell a re-created index from the one it replaced, and a
        compiled artifact holds the index object itself."""
        self.plan_cache.invalidate_all()
        self.maintainer.invalidate()

    def path_index(self, name: str) -> PathIndex:
        return self.indexes.get(name)

    def verify_index(self, name: str) -> bool:
        """Cross-check an index against a fresh traversal of its pattern
        (used by tests and examples; not part of the paper's pipeline)."""
        index = self.indexes.get(name)
        expected = set(
            self.maintainer.queries.run(
                index.pattern, hints=PlannerHints(use_path_indexes=False)
            )
        )
        if index.supports_full_scan:
            return expected == set(index.scan())
        # A partial index must hold exactly the occurrences of its
        # materialized start nodes — no more, no less.
        from repro.pathindex.partial import PartialPathIndex

        assert isinstance(index, PartialPathIndex)
        covered = {
            entry for entry in expected if index.is_materialized(entry[0])
        }
        return covered == set(index.scan_materialized())

    # ------------------------------------------------------------------
    # Cache control and sizing (§6.3 methodology)
    # ------------------------------------------------------------------

    def flush_cache(self) -> None:
        """Evict every cached page — the paper's database re-open for cold
        runs ("flush its memory cache without losing the optimized code
        paths")."""
        self.page_cache.flush()

    def size_report(self) -> SizeReport:
        return SizeReport(
            graph_bytes=self.store.size_on_disk(),
            index_bytes={
                index.name: index.size_on_disk() for index in self.indexes
            },
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(nodes={self.store.statistics.node_count}, "
            f"relationships={self.store.statistics.relationship_count}, "
            f"indexes={len(self.indexes)})"
        )


def _set(properties: Optional[dict[str, object]]) -> list[tuple[str, object]]:
    """The entries of a property map that set a property: a NULL value
    leaves the property unset, as in Cypher's ``CREATE``."""
    return [(key, value) for key, value in (properties or {}).items() if value is not None]
