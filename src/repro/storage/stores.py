"""Record stores: sequential, fixed-record-size files behind the page cache.

Each store is "a sequential block of memory that is mapped to a file on disk"
(paper §2.1.2). We model the file as a Python list indexed by record id, with a
free-list for id reuse, and report every record access to the page cache using
``record_id * record_size`` as the byte offset — the same mapping Neo4j's page
cache performs.

Since the MVCC change every slot holds a *version* ``(lsn, record)`` tuple
rather than the bare record: ``record`` is ``None`` for a tombstone (the id
was freed at ``lsn``), and the slot itself is ``None`` only for never-
allocated gaps. Overwritten versions move into a per-id history chain so a
reader pinned at an older LSN still resolves the record it could see at
acquire time — without taking any lock. See ``storage/versions.py`` for the
publish protocol and DESIGN.md §"MVCC snapshots" for the layout.
"""

from __future__ import annotations

import copy
from typing import Generic, Iterator, Optional, TypeVar

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.pagecache import PageCache
from repro.storage.versions import PENDING, VersionClock

R = TypeVar("R")


class RecordStore(Generic[R]):
    """A fixed-record-size store with free-list id allocation and per-record
    version chains.

    ``record_size`` is the on-disk size per record; it drives both the page
    mapping and :meth:`size_on_disk`. ``clock`` is the database-wide
    :class:`VersionClock`; when omitted (direct construction in tests) the
    store gets a private clock and behaves exactly like the pre-MVCC store
    for latest-mode reads.

    Write protocol (writer holds the database write lock):

    1. append the current version to the id's history chain,
    2. *then* replace the current slot with a ``(PENDING, record)`` version.

    A lock-free reader that races step 2 either sees the old current or the
    new one; either way every version it may need is already reachable.
    :meth:`publish` later restamps the PENDING versions with the commit LSN
    before the clock's published watermark advances, so no snapshot can be
    pinned between the two.
    """

    def __init__(
        self,
        name: str,
        record_size: int,
        page_cache: PageCache,
        clock: Optional[VersionClock] = None,
    ) -> None:
        self.name = name
        self.record_size = record_size
        self._page_cache = page_cache
        self._page_size = page_cache.page_size
        self._touch_page = page_cache.touch_page
        page_cache.register_file(name)
        self.clock = clock if clock is not None else VersionClock()
        self._view = self.clock.view
        # Slot: None = never allocated; (lsn, record) = current version;
        # (lsn, None) = tombstone (freed at lsn).
        self._records: list[Optional[tuple]] = []
        self._history: dict[int, list] = {}
        self._pending: set[int] = set()
        self._free_ids: list[int] = []
        self._in_use = 0

    def allocate_id(self, requested: Optional[int] = None) -> int:
        """Reserve an id (reusing freed ids first, like Neo4j's id files).

        ``requested`` forces a specific id — WAL replay uses this so node
        and relationship ids come out exactly as logged regardless of the
        free-list order the restored store happens to have. The requested
        slot must be unoccupied; ids skipped over by extending the file
        become free ids.
        """
        if requested is not None:
            if requested < 0:
                raise StorageError(f"{self.name}: invalid id {requested}")
            if requested < len(self._records):
                slot = self._records[requested]
                if slot is not None and slot[1] is not None:
                    raise StorageError(
                        f"{self.name}: id {requested} is already in use"
                    )
                try:
                    self._free_ids.remove(requested)
                except ValueError:
                    raise StorageError(
                        f"{self.name}: id {requested} is already allocated"
                    ) from None
                return requested
            for skipped in range(len(self._records), requested):
                self._free_ids.append(skipped)
            self._records.extend([None] * (requested + 1 - len(self._records)))
            return requested
        if self._free_ids:
            return self._free_ids.pop()
        self._records.append(None)
        return len(self._records) - 1

    def write(self, record_id: int, record: R) -> None:
        """Write ``record`` at ``record_id`` (which must have been allocated).

        The record object must be private to the writer: either freshly
        created or obtained through :meth:`read_for_update`. Mutating an
        object that is already stored would silently rewrite history.
        """
        if record_id < 0 or record_id >= len(self._records):
            raise StorageError(
                f"{self.name}: write to unallocated id {record_id}"
            )
        self._touch(record_id)
        current = self._records[record_id]
        if current is None or current[1] is None:
            self._in_use += 1
        if current is not None:
            # History first, then swap: a racing reader must always find
            # every version it could legally need.
            history = self._history.get(record_id)
            if history is None:
                self._history[record_id] = history = []
            history.append(current)
        self._records[record_id] = (PENDING, record)
        self._pending.add(record_id)

    def read(self, record_id: int) -> R:
        """Read the record at ``record_id``; raises if absent or freed."""
        record = self.try_read(record_id)
        if record is None:
            raise RecordNotFoundError(f"{self.name}: no record {record_id}")
        return record

    def try_read(self, record_id: int) -> Optional[R]:
        """Like :meth:`read` but returns None for missing records.

        Resolves against the thread's ambient snapshot when one is
        installed; otherwise returns the newest version (including the
        writer's own pending work). One page touch, no helper frames: this
        is the read every point lookup pays.
        """
        records = self._records
        if record_id < 0 or record_id >= len(records):
            return None
        slot = records[record_id]
        if slot is None:
            return None
        self._touch_page(self.name, record_id * self.record_size // self._page_size)
        snapshot = self._view.snapshot
        if snapshot is None or slot[0] <= snapshot.lsn:
            return slot[1]
        return self.historic(record_id, snapshot.lsn)

    def historic(self, record_id: int, lsn: int) -> Optional[R]:
        """The newest *historic* version of ``record_id`` at or below
        ``lsn`` (None: unallocated or freed then). Snapshot resolution's
        slow half, for readers whose pin predates the current slot."""
        history = self._history.get(record_id)
        if history is not None:
            for version_lsn, record in reversed(history):
                if version_lsn <= lsn:
                    return record
        return None

    def read_for_update(self, record_id: int) -> R:
        """A private copy of the latest record, safe for the writer to
        mutate and hand back to :meth:`write`."""
        if 0 <= record_id < len(self._records):
            slot = self._records[record_id]
            if slot is not None and slot[1] is not None:
                self._touch(record_id)
                return copy.copy(slot[1])
        raise RecordNotFoundError(f"{self.name}: no record {record_id}")

    def free(self, record_id: int) -> None:
        """Delete the record and recycle its id (tombstone version)."""
        if record_id < 0 or record_id >= len(self._records):
            raise RecordNotFoundError(f"{self.name}: no record {record_id}")
        current = self._records[record_id]
        if current is None or current[1] is None:
            raise RecordNotFoundError(f"{self.name}: record {record_id} already freed")
        self._touch(record_id)
        history = self._history.get(record_id)
        if history is None:
            self._history[record_id] = history = []
        history.append(current)
        self._records[record_id] = (PENDING, None)
        self._pending.add(record_id)
        self._in_use -= 1
        self._free_ids.append(record_id)

    def exists(self, record_id: int) -> bool:
        if record_id < 0 or record_id >= len(self._records):
            return False
        slot = self._records[record_id]
        if slot is None:
            return False
        snapshot = self._view.snapshot
        if snapshot is None or slot[0] <= snapshot.lsn:
            return slot[1] is not None
        return self.historic(record_id, snapshot.lsn) is not None

    def ids_in_use(self) -> Iterator[int]:
        """All live record ids in id order (a sequential store scan).

        The sweep accounts pages like a real sequential read: each page is
        touched once, and contiguous pages are reported to the cache in
        runs (one lock acquisition per run, flushed when a gap breaks the
        run or the consumer stops). Point reads keep per-record touches.
        """
        page_size = self._page_cache.page_size
        record_size = self.record_size
        touch_run = self._page_cache.touch_run
        lsn = self.clock.reading_lsn()
        run_start = -1
        run_end = -1  # exclusive
        try:
            for record_id, slot in enumerate(self._records):
                if slot is None:
                    continue
                if lsn is None or slot[0] <= lsn:
                    if slot[1] is None:
                        continue
                elif self.historic(record_id, lsn) is None:
                    continue
                page_id = record_id * record_size // page_size
                if page_id >= run_end:
                    if page_id == run_end:
                        run_end += 1
                    else:
                        if run_start >= 0:
                            touch_run(self.name, run_start, run_end - run_start)
                        run_start = page_id
                        run_end = page_id + 1
                yield record_id
        finally:
            if run_start >= 0:
                touch_run(self.name, run_start, run_end - run_start)

    def __len__(self) -> int:
        return self._in_use

    @property
    def highest_id(self) -> int:
        """One past the largest id ever allocated (the file's record count)."""
        return len(self._records)

    def size_on_disk(self) -> int:
        """Bytes of the backing file: allocated records × record size."""
        return len(self._records) * self.record_size

    def _touch(self, record_id: int) -> None:
        self._touch_page(self.name, record_id * self.record_size // self._page_size)

    # -- MVCC publish / GC -------------------------------------------------

    def has_pending(self) -> bool:
        return bool(self._pending)

    def publish(self, lsn: int) -> None:
        """Restamp every PENDING version with the commit LSN.

        Pending versions in a history chain form a contiguous tail (they
        were appended after the last publish), so the restamp walks each
        chain backwards until it hits a stamped version.
        """
        if not self._pending:
            return
        for record_id in self._pending:
            history = self._history.get(record_id)
            if history is not None:
                for index in range(len(history) - 1, -1, -1):
                    if history[index][0] is not PENDING:
                        break
                    history[index] = (lsn, history[index][1])
            slot = self._records[record_id]
            if slot is not None and slot[0] is PENDING:
                self._records[record_id] = (lsn, slot[1])
        self._pending.clear()

    def collect_versions(self, cutoff: int) -> int:
        """Reclaim history unreachable by snapshots at or above ``cutoff``.

        For each id: if the *current* version is at or below the cutoff,
        every historic version is dead; otherwise keep the newest historic
        version at or below the cutoff plus everything newer. Runs without
        quiescing readers — replacement is a single dict store and any
        reader still holding the old list resolves correctly from it.
        Returns the number of versions reclaimed.
        """
        reclaimed = 0
        for record_id in list(self._history):
            history = self._history[record_id]
            slot = self._records[record_id]
            if slot is not None and slot[0] <= cutoff:
                reclaimed += len(history)
                del self._history[record_id]
                continue
            keep_from = len(history)
            for index in range(len(history) - 1, -1, -1):
                keep_from = index
                if history[index][0] <= cutoff:
                    break
            if keep_from > 0:
                self._history[record_id] = history[keep_from:]
                reclaimed += keep_from
        return reclaimed

    def version_count(self) -> int:
        """Historic (non-current) versions retained, for metrics."""
        return sum(len(chain) for chain in list(self._history.values()))

    # -- snapshot support -------------------------------------------------

    def dump_records(self) -> dict[int, R]:
        """All live records by id (snapshot save; no page accounting)."""
        return {
            record_id: slot[1]
            for record_id, slot in enumerate(self._records)
            if slot is not None and slot[1] is not None
        }

    def restore_records(self, records: dict[int, R]) -> None:
        """Replace the store's contents wholesale (snapshot load).

        Record ids are preserved exactly; gaps become free ids, largest
        first so future allocation reuses low ids the way a freshly
        replayed store would. Restored versions are stamped at LSN 0 —
        the base every later snapshot resolves to.
        """
        highest = max(records) if records else -1
        self._records = [
            (0, records[record_id]) if record_id in records else None
            for record_id in range(highest + 1)
        ]
        self._history = {}
        self._pending = set()
        self._free_ids = sorted(
            (
                record_id
                for record_id in range(highest + 1)
                if record_id not in records
            ),
            reverse=True,
        )
        self._in_use = len(records)


class TokenStore:
    """Bidirectional name↔id registry for labels, relationship types and
    property keys (Neo4j's token stores).

    Append-only, so it needs no versioning: a snapshot reader resolving a
    token created after its pin simply finds a label/type no visible
    record carries — a safe over-approximation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []

    def get_or_create(self, token: str) -> int:
        """Return the id for ``token``, allocating one if needed."""
        token_id = self._name_to_id.get(token)
        if token_id is None:
            token_id = len(self._id_to_name)
            self._id_to_name.append(token)
            self._name_to_id[token] = token_id
        return token_id

    def id_of(self, token: str) -> Optional[int]:
        """The id for ``token`` or None if it was never created."""
        return self._name_to_id.get(token)

    def name_of(self, token_id: int) -> str:
        if 0 <= token_id < len(self._id_to_name):
            return self._id_to_name[token_id]
        raise StorageError(f"{self.name}: unknown token id {token_id}")

    def all_tokens(self) -> list[str]:
        return list(self._id_to_name)

    def restore_tokens(self, tokens: list[str]) -> None:
        """Replace the registry wholesale (snapshot load)."""
        self._id_to_name = list(tokens)
        self._name_to_id = {name: i for i, name in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __contains__(self, token: str) -> bool:
        return token in self._name_to_id
