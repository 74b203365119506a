"""The query (plan) cache of the pipeline (§4.1.1).

Neo4j caches executable plans per query *string*; the paper's maintenance
queries had to bypass it ("otherwise we had no control over which indexes
would be used in the maintenance queries"). That bypass of the text-keyed
cache is kept — :meth:`GraphDatabase.execute` is the only user of
``db.plan_cache`` — but re-planning is not: the anchored pattern queries of
Algorithm 1 (and Algorithm 2, and ``verify_index``) go through a *second
instance of this same class*, owned by the maintainer and keyed by
``(pattern, anchor kind, anchor position, hints)``
(:class:`repro.db.patternquery.PatternQueries`). The hints carry the
Algorithm-1 forbidden set, so control over index usage lives in the key.

Entries are invalidated when the index set changes or the graph statistics
drift beyond a threshold — a plan chosen for very different cardinalities is
likely stale. An entry needs only the three staleness fields
(``node_count``, ``relationship_count``, ``index_signature``);
:class:`CachedQuery` is the text-keyed cache's entry type.

The signature compares index *names*, which cannot see ``DROP P`` followed
by ``CREATE P`` on another pattern, so index DDL also calls
:meth:`PlanCache.invalidate_all` under the store's exclusive-writer lock.
That bumps :attr:`PlanCache.generation`; a planner that read the generation
before it looked at the index set passes it to :meth:`PlanCache.store`, and
a plan that raced the DDL is dropped instead of cached.

The cache is thread-safe (a single lock guards the LRU map and its
counters) so the concurrent query service can share one database across
worker threads, and capacity evictions are counted. Observers register a
callback with :meth:`PlanCache.subscribe` to receive
``"hit" | "miss" | "eviction" | "invalidation"`` events — the service layer
points one at its metrics registry and detaches it on shutdown, so several
services (or a replaced service) never steal each other's traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_CAPACITY = 128
DEFAULT_DRIFT = 0.25

ENTRY_BYTES = 8 * 1024
"""Deterministic estimate for one cached plan (analyzed query + plan tree +
possible codegen artifact) — an accounting figure for the memory pool's
cache gauges, in the same spirit as the runtime's per-row estimates."""


@dataclass
class CachedQuery:
    """A fully analyzed + planned query ready for execution."""

    analyzed: object  # AnalyzedQuery
    planned_parts: list  # [(QueryPart, LogicalPlan)]
    columns: list[str]
    node_count: int
    relationship_count: int
    index_signature: frozenset[str]


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

    def lookup(
        self,
        key,
        node_count: int,
        relationship_count: int,
        index_signature: frozenset[str],
    ):
        """A fresh cached entry for ``key``, or None (stale entries are
        evicted on sight)."""
        events: list[str] = []
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                events.append("miss")
                entry = None
            elif entry.index_signature != index_signature or self._drifted(
                entry, node_count, relationship_count
            ):
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                events.extend(("invalidation", "miss"))
                entry = None
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                events.append("hit")
        self._emit(events)
        return entry

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
        gauges (never charged to a query)."""
        with self._lock:
            return len(self._entries) * ENTRY_BYTES

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
