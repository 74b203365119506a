"""Partially materialized path indexes (§4.1).

The paper notes its index implementation was modified "to facilitate
partially materialized indexes". This module provides that facility: a
:class:`PartialPathIndex` stores pattern occurrences only for *start nodes
that have been asked about*. It can never serve a full PathIndexScan — the
planner offers it exclusively through PathIndexPrefixSeek — but a prefix
seek materializes the bound start node on first touch (by anchored
traversal) and serves every later seek from the B+-tree.

Maintenance integrates naturally with Algorithm 1: removals apply verbatim
(absent entries are no-ops), additions are filtered to materialized start
nodes (everything else will be recomputed on demand anyway).

Under MVCC, materialization is a *latest-mode* operation: it mutates the
shared index. A snapshot reader must not publish entries other snapshots
could half-observe, and could not share them anyway (its traversal sees
the graph at its own LSN) — so snapshot seeks materialize into a private
per-snapshot cache (:attr:`Snapshot.partial_cache`) and serve prefix scans
from it, leaving all shared state untouched.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.db.patternquery import NodeAnchor
from repro.errors import PathIndexError
from repro.pathindex.index import PathIndex
from repro.pathindex.maintenance import traverse_pattern
from repro.pathindex.pattern import PathPattern
from repro.storage.graphstore import GraphStore
from repro.storage.pagecache import PageCache
from repro.storage.versions import VersionClock


class PartialPathIndex(PathIndex):
    """A lazily-populated path index keyed by materialized start nodes."""

    supports_full_scan = False

    def __init__(
        self,
        name: str,
        pattern: PathPattern,
        page_cache: Optional[PageCache] = None,
        clock: Optional[VersionClock] = None,
    ) -> None:
        super().__init__(name, pattern, page_cache, clock=clock)
        self._materialized_starts: set[int] = set()

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    @property
    def materialized_start_count(self) -> int:
        return len(self._materialized_starts)

    def is_materialized(self, start_node: int) -> bool:
        return start_node in self._materialized_starts

    def _ambient_snapshot(self):
        if self.clock is None:
            return None
        return self.clock.ambient()

    def prepare_prefix(self, prefix: Sequence[int], store: GraphStore) -> None:
        """Materialize the prefix's start node before a seek (runtime hook).

        Latest-mode readers (writers, embedded use) materialize into the
        shared index; snapshot readers compute the start's occurrences at
        their own LSN into the snapshot's private cache.
        """
        if not prefix:
            raise PathIndexError(
                f"partial index {self.name!r} requires a non-empty seek prefix"
            )
        start_node = int(prefix[0])
        snapshot = self._ambient_snapshot()
        if snapshot is None:
            self.materialize_start(start_node, store)
            return
        key = (id(self), start_node)
        if key in snapshot.partial_cache:
            return
        entries: list[tuple[int, ...]] = []
        if store.node_exists(start_node):
            anchor = NodeAnchor(0, start_node)
            for entry in traverse_pattern(store, self.pattern, anchor):
                entries.append(tuple(entry))
        entries.sort()
        snapshot.partial_cache[key] = entries

    def materialize_start(self, start_node: int, store: GraphStore) -> int:
        """Compute and insert all occurrences beginning at ``start_node``;
        returns how many entries were added (0 if already materialized)."""
        if start_node in self._materialized_starts:
            return 0
        added = 0
        if store.node_exists(start_node):
            anchor = NodeAnchor(0, start_node)
            for entry in traverse_pattern(store, self.pattern, anchor):
                if self.add_if_covered(entry, force=True):
                    added += 1
        self._materialized_starts.add(start_node)
        return added

    def restore_materialized_starts(self, starts: Sequence[int]) -> None:
        """Snapshot support: mark these start nodes as materialized."""
        self._materialized_starts.update(int(start) for start in starts)

    def materialized_starts(self) -> list[int]:
        return sorted(self._materialized_starts)

    def evict_start(self, start_node: int) -> int:
        """Drop a start node's entries (cache-style eviction); returns the
        number of removed entries."""
        removed = 0
        for entry in list(self.scan_prefix((start_node,))):
            if self.remove(entry):
                removed += 1
        self._materialized_starts.discard(start_node)
        return removed

    # ------------------------------------------------------------------
    # Maintenance integration
    # ------------------------------------------------------------------

    def add_if_covered(self, entry: Sequence[int], force: bool = False) -> bool:
        """Insert an occurrence only if its start node is materialized."""
        entry_tuple = tuple(entry)
        if not force and entry_tuple[0] not in self._materialized_starts:
            return False
        return super().add(entry_tuple)

    def add(self, entry: Sequence[int]) -> bool:
        return self.add_if_covered(entry)

    # ------------------------------------------------------------------
    # Scans: only prefix access is meaningful
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, ...]]:
        raise PathIndexError(
            f"partial index {self.name!r} cannot serve a full scan; "
            "use prefix seeks"
        )

    def scan_prefix(self, prefix: Sequence[int]) -> Iterator[tuple[int, ...]]:
        snapshot = self._ambient_snapshot()
        if snapshot is not None:
            prefix_tuple = tuple(int(value) for value in prefix)
            cached = snapshot.partial_cache.get((id(self), prefix_tuple[0]))
            if cached is not None:
                width = len(prefix_tuple)
                return (
                    entry for entry in cached if entry[:width] == prefix_tuple
                )
        return super().scan_prefix(prefix)

    def count_prefix(self, prefix: Sequence[int]) -> int:
        snapshot = self._ambient_snapshot()
        if snapshot is not None:
            prefix_tuple = tuple(int(value) for value in prefix)
            cached = snapshot.partial_cache.get((id(self), prefix_tuple[0]))
            if cached is not None:
                width = len(prefix_tuple)
                return sum(
                    1 for entry in cached if entry[:width] == prefix_tuple
                )
        return super().count_prefix(prefix)

    def scan_materialized(self) -> Iterator[tuple[int, ...]]:
        """Everything currently materialized (diagnostics/tests); merges
        unfolded overlay deltas at the reader's LSN."""
        return PathIndex.scan(self)

    def __repr__(self) -> str:
        return (
            f"PartialPathIndex({self.name!r}, {self.pattern}, "
            f"n={self.cardinality}, starts={self.materialized_start_count})"
        )
