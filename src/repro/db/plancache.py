"""The query (plan) cache of the pipeline (§4.1.1).

Neo4j caches executable plans per query *string*, which literal-varying
traffic defeats: no text is ever seen twice. ``db.plan_cache`` keeps two
kinds of key in this one cache:

* a **text key** ``(query_text, hints)`` → a per-text :class:`CachedQuery`;
* a **shape key** ``(shape, hints)`` → the shape's :class:`CachedQuery`,
  where the shape is the text with every INTEGER, FLOAT and STRING literal
  (and every ``$name``) replaced by a typed slot
  (:func:`repro.cypher.lexer.literal_shape`).

A shape's plan holds :class:`~repro.cypher.ast.Parameter` slots. A text of
a known shape binds its literal values instead of being parsed and
planned: its entry is a **binding**, the shape's planned parts (and so its
codegen artifact) in a :class:`BoundParts` list carrying the text's
``params``. A text hit costs one lookup; only a text miss computes the
shape key. Texts whose literals would decide the plan or a column name are
cached by text only (:func:`repro.cypher.parser.parse_shape`), as are
texts without literals.

Plans and bindings share one LRU map and its ``capacity``, so over-full
traffic of many shapes, each with never-seen literals, can push a shape's
plan out behind its own texts' bindings.

``GraphDatabase.prepare`` and the pattern queries come in through
:meth:`PlanCache.fetch`, which reads the generation, visible index names
and statistics once (a :class:`Planning`), looks the key up, plans on a
miss with :meth:`Planning.plan` and stores the result. It counts one
``hit`` (some lookup answered, a text's shape included) or one ``miss``
(a planning, also one that fails) per call; ``evictions`` counts
entries dropped for capacity. The service metrics, STATUS and the
shell's ``:metrics`` report these counters.

The paper's maintenance queries bypassed the query cache, to control
which indexes they use. Here they are Cypher texts planned by the same
function, cached in a *second instance of this class* whose key holds the
Algorithm-1 forbidden set (:class:`repro.db.patternquery.PatternQueries`).

Entries are invalidated when the visible index set changes or the graph
statistics drift beyond a threshold — a plan chosen for very different
cardinalities is likely stale. The signature compares index *names*,
which cannot see ``DROP P`` followed by ``CREATE P`` on another pattern,
so index DDL also calls :meth:`PlanCache.invalidate_all` under the store's
exclusive-writer lock. That bumps :attr:`PlanCache.generation`; a plan
whose planning began before the bump is dropped instead of cached.

The cache is thread-safe (one lock guards the LRU map and its counters) so
the concurrent query service can share one database across worker
threads. Observers register a callback with :meth:`PlanCache.subscribe`
to receive ``"hit" | "miss" | "eviction" | "invalidation"`` events — the
service layer points one at its metrics registry and detaches it on
shutdown, so several services never steal each other's traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cypher import analyze
from repro.planner import Planner
from repro.querygraph import build_query_parts

DEFAULT_CAPACITY = 128
DEFAULT_DRIFT = 0.25

ENTRY_BYTES = 8 * 1024
"""Deterministic estimate for one cached plan (analyzed query + plan tree +
possible codegen artifact) — an accounting figure for the memory pool's
cache gauges, in the same spirit as the runtime's per-row estimates."""

BINDING_BYTES = 512
"""The same figure for a per-text entry that binds a shape's plan: the
key's text, the entry, its parts list and its parameter tuple."""


class BoundParts(list):
    """A shape's planned parts ``[(QueryPart, LogicalPlan)]`` (the same
    tuples, so the same plan nodes and artifact) with the parameter tuple
    of one text. ``Executor.execute`` reads ``params`` from it."""

    __slots__ = ("params",)

    def __init__(self, parts, params: tuple) -> None:
        super().__init__(parts)
        self.params = params


@dataclass
class CachedQuery:
    """A fully analyzed + planned query ready for execution."""

    analyzed: object  # AnalyzedQuery
    planned_parts: list  # [(QueryPart, LogicalPlan)], or BoundParts
    columns: list[str]
    node_count: int
    relationship_count: int
    index_signature: frozenset[str]

    def bind(self, params: tuple) -> "CachedQuery":
        """A per-text entry running this (shape) entry's plan with
        ``params``; staleness is judged from the shape's planning."""
        return CachedQuery(
            analyzed=self.analyzed,
            planned_parts=BoundParts(self.planned_parts, params),
            columns=self.columns,
            node_count=self.node_count,
            relationship_count=self.relationship_count,
            index_signature=self.index_signature,
        )


class Planning:
    """One call through :meth:`PlanCache.fetch`: the cache generation, the
    visible index names and the graph statistics, read once and in that
    order, so every entry the call looks up, plans or stores is judged
    against the same view of the database."""

    __slots__ = (
        "cache", "store", "index_store", "generation", "signature", "stats", "hit"
    )

    def __init__(self, cache: "PlanCache", store, index_store) -> None:
        self.cache = cache
        self.store = store
        self.index_store = index_store
        self.generation = cache.generation  # before reading the index set
        # Visible names, not all names: a snapshot reader planning against
        # an index attached after its LSN would read entries it must not
        # see, and a cached plan from the pre-attach window must be
        # invalidated once the index becomes visible.
        self.signature = frozenset(index_store.visible_names())
        self.stats = store.statistics_view()
        self.hit = False

    def lookup(self, key):
        """The fresh entry under ``key``, or None; the call counts once,
        as a hit if any of its lookups answered."""
        stats = self.stats
        entry = self.cache._fresh(
            key, stats.node_count, stats.relationship_count, self.signature
        )
        self.hit |= entry is not None
        return entry

    def keep(self, key, entry) -> None:
        """Store ``entry`` unless index DDL ran since the call began."""
        self.cache.store(key, entry, self.generation)

    def plan(self, query, hints, arguments: frozenset = frozenset()) -> "CachedQuery":
        """Analyze ``query`` (an AST), split it into parts and plan each.
        ``arguments`` are variables bound before the first part runs (a
        pattern query's anchor)."""
        analyzed = analyze(query)
        parts = build_query_parts(analyzed)
        if arguments:
            parts[0].query_graph.arguments = arguments
        planner = Planner(self.store, self.index_store)
        final = parts[-1].projection if parts else []
        return CachedQuery(
            analyzed=analyzed,
            planned_parts=[(part, planner.plan_part(part, hints)) for part in parts],
            columns=[item.output_name for item in final],
            node_count=self.stats.node_count,
            relationship_count=self.stats.relationship_count,
            index_signature=self.signature,
        )


class PlanCache:
    """Bounded, thread-safe LRU cache of planned queries with staleness
    invalidation."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        drift_threshold: float = DEFAULT_DRIFT,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.drift_threshold = drift_threshold
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: Bumped by :meth:`invalidate_all`; see :meth:`store`.
        self.generation = 0
        self._subscribers: list[Callable[[str], None]] = []

    def fetch(self, key, store, index_store, plan: Callable[[Planning], object]):
        """The cache's front door: the fresh entry under ``key``, else the
        one ``plan`` returns, stored under ``key``. ``plan`` gets the
        call's :class:`Planning`, through which it may look up other keys
        (a text's shape) and plan. ``key`` None looks nothing up and stores
        nothing. Counts one hit, if some lookup answered, or else one miss,
        also when ``plan`` raises."""
        planning = Planning(self, store, index_store)
        try:
            entry = None if key is None else planning.lookup(key)
            if entry is None:
                entry = plan(planning)
                if key is not None:
                    planning.keep(key, entry)
            return entry
        finally:
            self._count(planning.hit)

    def lookup(
        self,
        key,
        node_count: int,
        relationship_count: int,
        index_signature: frozenset[str],
    ):
        """A fresh cached entry for ``key``, or None (stale entries are
        evicted on sight); counts one hit or one miss."""
        entry = self._fresh(key, node_count, relationship_count, index_signature)
        self._count(entry is not None)
        return entry

    def _fresh(self, key, node_count, relationship_count, index_signature):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.index_signature == index_signature and not self._drifted(
                entry, node_count, relationship_count
            ):
                self._entries.move_to_end(key)
                return entry
            del self._entries[key]
            self.invalidations += 1
        self._emit(["invalidation"])
        return None

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        self._emit(["hit" if hit else "miss"])

    def store(self, key, entry, generation: Optional[int] = None) -> None:
        """Cache ``entry``. ``generation`` is :attr:`generation` as read
        before planning; if index DDL ran since, the plan may name a
        replaced index and is not cached."""
        events: list[str] = []
        with self._lock:
            if generation is not None and generation != self.generation:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                events.append("eviction")
        self._emit(events)

    def subscribe(self, callback: Callable[[str], None]) -> None:
        """Register ``callback`` for cache events (duplicates are kept, so
        pair each subscribe with one :meth:`unsubscribe`)."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[str], None]) -> None:
        """Detach one registration of ``callback``; missing is a no-op."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def approx_bytes(self) -> int:
        """Estimated resident size, reported via the memory pool's cache
        gauges (never charged to a query): :data:`ENTRY_BYTES` per plan,
        :data:`BINDING_BYTES` per entry binding a plan held elsewhere."""
        with self._lock:
            return sum(
                BINDING_BYTES
                if isinstance(getattr(entry, "planned_parts", None), BoundParts)
                else ENTRY_BYTES
                for entry in self._entries.values()
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def invalidate_all(self) -> None:
        """Index DDL: every entry is stale, whatever its signature says."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            self.generation += 1
        self._emit(["invalidation"] * dropped)

    def counters(self) -> dict[str, int]:
        """The figures metrics snapshots and STATUS report per cache."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def items(self) -> list[tuple]:
        """``(key, entry)`` pairs, least recently used first (inspection)."""
        with self._lock:
            return list(self._entries.items())

    def _emit(self, events: list[str]) -> None:
        if not events:
            return
        # Callbacks run outside the lock: they may be arbitrarily slow
        # (metrics); the snapshot keeps iteration safe against concurrent
        # (un)subscribes.
        with self._lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            for event in events:
                callback(event)

    def _drifted(self, entry, nodes: int, relationships: int) -> bool:
        return _drift(entry.node_count, nodes) > self.drift_threshold or _drift(
            entry.relationship_count, relationships
        ) > self.drift_threshold


def _drift(then: int, now: int) -> float:
    if then == now:
        return 0.0
    return abs(now - then) / max(then, 1)
