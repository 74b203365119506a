"""The path index store: registry of all path indexes of one database.

The planner asks it for patterns to match, the maintenance applier for the
indexes affected by an update (Algorithm 1, line 4, sorted by pattern length),
and the §6.1 baseline extension for its single-relationship type indexes.

It also acts as the graph store's *publisher* for MVCC commits: when a
transaction publishes, every index's pending overlay deltas are stamped
with the commit LSN, and the version garbage collector folds stamped
deltas into the B+-trees whenever no snapshot is live to observe it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import PathIndexError
from repro.pathindex.index import PathIndex
from repro.pathindex.pattern import PathPattern
from repro.storage.pagecache import PageCache
from repro.storage.versions import PENDING, VersionClock


class PathIndexStore:
    """Name → :class:`PathIndex` registry."""

    def __init__(
        self,
        page_cache: Optional[PageCache] = None,
        clock: Optional[VersionClock] = None,
    ) -> None:
        self._page_cache = page_cache
        self._clock = clock
        # Replaced, never mutated: lock-free readers iterate the registry
        # while DDL (under the store write lock) creates and drops.
        self._indexes: dict[str, PathIndex] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, name: str, pattern: PathPattern) -> PathIndex:
        """Register a new, empty index (initialization is separate).

        The index starts *unsealed* — writes go straight to its tree and
        it is visible from LSN 0; ``GraphDatabase.create_path_index`` seals
        it after population so commit-time maintenance becomes versioned
        overlay deltas.
        """
        if name in self._indexes:
            raise PathIndexError(f"path index {name!r} already exists")
        index = PathIndex(name, pattern, self._page_cache, clock=self._clock)
        self._indexes = {**self._indexes, name: index}
        return index

    def drop(self, name: str) -> None:
        if name not in self._indexes:
            raise PathIndexError(f"no path index {name!r}")
        self._indexes = {
            other: index for other, index in self._indexes.items() if other != name
        }

    def get(self, name: str) -> PathIndex:
        index = self._indexes.get(name)
        if index is None:
            raise PathIndexError(f"no path index {name!r}")
        return index

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def __iter__(self) -> Iterator[PathIndex]:
        return iter(self._indexes.values())

    def __len__(self) -> int:
        return len(self._indexes)

    def names(self) -> list[str]:
        return list(self._indexes)

    # ------------------------------------------------------------------
    # MVCC visibility and the commit-publish protocol
    # ------------------------------------------------------------------

    def _visible(self, index: PathIndex) -> bool:
        """Planner visibility: a building index (``created_lsn`` pending)
        is invisible to everyone; a snapshot reader additionally skips
        indexes attached after its LSN."""
        created = index.created_lsn
        if created is PENDING:
            return False
        if self._clock is None:
            return True
        lsn = self._clock.reading_lsn()
        return lsn is None or created <= lsn

    def visible_names(self) -> list[str]:
        """Names the current reader's planner may use (plan-cache key)."""
        return [
            name for name, index in self._indexes.items() if self._visible(index)
        ]

    def has_pending(self) -> bool:
        return any(index.has_pending() for index in self._indexes.values())

    def publish(self, lsn: int) -> None:
        for index in list(self._indexes.values()):
            index.publish(lsn)

    def collect(self, cutoff: float) -> int:
        """Fold stamped overlay deltas into the trees, if no snapshot is
        live to observe the mutation. Returns the folded delta count."""
        if self._clock is None or not any(
            index.delta_count() for index in self._indexes.values()
        ):
            return 0
        if not self._clock.try_begin_fold():
            return 0
        try:
            return sum(index.fold() for index in list(self._indexes.values()))
        finally:
            self._clock.end_fold()

    def delta_count(self) -> int:
        return sum(index.delta_count() for index in self._indexes.values())

    # ------------------------------------------------------------------
    # Lookup used by the planner
    # ------------------------------------------------------------------

    def patterns(self) -> dict[str, PathPattern]:
        """Pattern of every visible index (the matcher's input)."""
        return {
            name: index.pattern
            for name, index in self._indexes.items()
            if self._visible(index)
        }

    def type_scan_index(self, type_name: str) -> Optional[PathIndex]:
        """The §6.1 baseline extension: a length-1, label-free, forward index
        on exactly ``type_name``, if one is registered."""
        for index in self._indexes.values():
            pattern = index.pattern
            if (
                self._visible(index)
                and pattern.length == 1
                and pattern.labels == (None, None)
                and pattern.relationships[0].forward
                and pattern.relationships[0].type == type_name
            ):
                return index
        return None

    # ------------------------------------------------------------------
    # Lookup used by maintenance (Algorithm 1)
    # ------------------------------------------------------------------

    def affected_by_relationship(
        self,
        type_name: Optional[str],
        start_labels: frozenset[str],
        end_labels: frozenset[str],
    ) -> list[PathIndex]:
        """Indexes whose patterns could contain such a relationship, sorted by
        pattern length ascending (Algorithm 1, lines 4–5)."""
        hits = [
            index
            for index in self._indexes.values()
            if index.pattern.contains_step(type_name, start_labels, end_labels)
        ]
        hits.sort(key=lambda index: (index.pattern.length, index.name))
        return hits

    def affected_by_label(self, label: str) -> list[PathIndex]:
        """Indexes whose patterns mention ``label``, sorted by length."""
        hits = [
            index
            for index in self._indexes.values()
            if index.pattern.mentions_label(label)
        ]
        hits.sort(key=lambda index: (index.pattern.length, index.name))
        return hits

    # ------------------------------------------------------------------
    # Sizing (indexes are "measured and reported separately", §6.3)
    # ------------------------------------------------------------------

    def size_on_disk(self) -> int:
        return sum(index.size_on_disk() for index in self._indexes.values())
