"""MVCC primitives: snapshots, the version clock, and versioned maps.

The storage layer gives every committed transaction a monotonically
increasing **commit LSN** (the WAL sequence number when durability is on, a
private counter otherwise). Writers build new record versions *privately* —
stamped with the :data:`PENDING` sentinel — and publish them all at once at
commit by restamping them with the commit LSN and only then advancing the
clock's ``published`` watermark. Readers never lock anything:

* **Latest mode** (no ambient snapshot): reads return the newest version
  directly, including the writer's own unpublished work. This is what a
  writer transaction and single-threaded embedded use see.
* **Snapshot mode**: a reader holds a :class:`Snapshot` pinned at some LSN
  and resolves every record to the newest version whose LSN is ``<=`` that
  pin. Because publish stamps versions *before* advancing ``published``,
  and a snapshot's LSN is always a previously-advanced watermark, a reader
  can never observe a half-published commit.

Everything here relies on CPython's GIL for atomicity of single reference
assignments, ``list.append``, and dict get/set — there are deliberately no
locks on any read path. The only lock in the module is ``write_lock``,
which serializes writers with writers (and with maintenance such as
checkpoints, index DDL, and version GC).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterator, Optional

PENDING = float("inf")
"""Version stamp for not-yet-committed versions.

``PENDING`` compares greater than every real LSN, so snapshot readers
(``version_lsn <= snapshot_lsn``) skip in-flight versions for free, while
latest-mode readers (no comparison at all) see them — exactly the
visibility a writer wants for its own uncommitted work.
"""


class Snapshot:
    """A pinned read view: everything committed at ``lsn`` or earlier.

    Acquired from :meth:`VersionClock.acquire` (usually via
    ``GraphDatabase.snapshot()``) and released with
    :meth:`VersionClock.release`; while live it also pins version GC.
    """

    __slots__ = ("lsn", "token")

    def __init__(self, lsn: int, token: int) -> None:
        self.lsn = lsn
        self.token = token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(lsn={self.lsn})"


class _ReadView(threading.local):
    """Per-thread ambient read view. ``snapshot`` defaults to None (latest
    mode) at class level, so the per-record lookup on read paths is a plain
    attribute load, never a missing-attribute fallback."""

    snapshot: Optional[Snapshot] = None


class VersionClock:
    """The storage layer's commit clock and live-snapshot registry.

    ``view.snapshot`` is this thread's ambient snapshot (None = latest
    mode); record stores read it directly on their hot paths.
    """

    def __init__(self) -> None:
        self._published = 0
        self._live: dict[int, int] = {}  # snapshot token -> pinned lsn
        self._tokens = itertools.count(1)
        self.view = _ReadView()
        self._folding = False
        # Writers serialize with writers (and with checkpoint/DDL/GC)
        # through this lock; readers never take it.
        self.write_lock = threading.RLock()

    # -- commit side -------------------------------------------------------

    @property
    def published(self) -> int:
        return self._published

    def next_lsn(self) -> int:
        """A fresh commit LSN for non-durable databases (caller holds the
        write lock, so published+1 cannot race another writer)."""
        return self._published + 1

    def publish(self, lsn: int) -> None:
        """Advance the published watermark to ``lsn`` (monotonic)."""
        if lsn > self._published:
            self._published = lsn

    def exclusive_writer(self):
        """Context manager serializing with writers (checkpoint, DDL, GC)."""
        return self.write_lock

    # -- read side ---------------------------------------------------------

    def acquire(self) -> Snapshot:
        """Pin a snapshot at the current published watermark. Lock-free."""
        snapshot = Snapshot(self._published, next(self._tokens))
        self._live[snapshot.token] = snapshot.lsn
        # If a path-index fold is mid-flight it saw zero live snapshots
        # before we registered; wait it out so we never read a tree that
        # is absorbing deltas under us. Registering *first* guarantees the
        # folder's re-check aborts any fold that starts after this point.
        while self._folding:
            time.sleep(0.0002)
        return snapshot

    def release(self, snapshot: Snapshot) -> None:
        self._live.pop(snapshot.token, None)

    def reading(self, snapshot: Snapshot):
        """Context manager installing ``snapshot`` as this thread's ambient
        read view; all store reads on the thread resolve against it."""
        return _AmbientReader(self, snapshot)

    def ambient(self) -> Optional[Snapshot]:
        return self.view.snapshot

    def reading_lsn(self) -> Optional[int]:
        """The ambient snapshot LSN, or None for latest-mode reads."""
        snapshot = self.view.snapshot
        return None if snapshot is None else snapshot.lsn

    # -- GC / fold coordination --------------------------------------------

    def live_count(self) -> int:
        return len(self._live)

    def gc_cutoff(self) -> int:
        """Versions strictly older than this LSN can never be read again."""
        live = list(self._live.values())
        return min(live) if live else self._published

    def try_begin_fold(self) -> bool:
        """Enter the fold barrier iff there are zero live snapshots.

        Caller must hold the write lock and must call :meth:`end_fold`.
        The flag/re-check pair pairs with :meth:`acquire`: a reader
        registers itself and then waits on the flag, so either the fold
        sees the reader and aborts, or the reader sees the flag and waits.
        """
        self._folding = True
        if self._live:
            self._folding = False
            return False
        return True

    def end_fold(self) -> None:
        self._folding = False


class _AmbientReader:
    __slots__ = ("_clock", "_snapshot", "_previous")

    def __init__(self, clock: VersionClock, snapshot: Snapshot) -> None:
        self._clock = clock
        self._snapshot = snapshot

    def __enter__(self) -> Snapshot:
        view = self._clock.view
        self._previous = view.snapshot
        view.snapshot = self._snapshot
        return self._snapshot

    def __exit__(self, *exc) -> None:
        self._clock.view.snapshot = self._previous


class VersionedChainMap:
    """A key → value map whose every key carries an append-only event chain.

    Used for derived structures that must be snapshot-consistent but are
    not record stores: label-index buckets (value: membership bool) and
    node degrees (value: int). Writers append ``(PENDING, value)`` events;
    :meth:`publish` restamps them with the commit LSN. Deletions append a
    ``deleted_value`` event rather than removing the chain, so a pinned
    snapshot still resolves the historic value even across id reuse.

    Chains are plain lists appended in commit order, so latest is
    ``chain[-1]`` and snapshot resolution walks ``reversed(chain)`` — both
    safe against concurrent appends under the GIL.
    """

    __slots__ = ("_chains", "_pending", "_latest")

    def __init__(self) -> None:
        self._chains: dict = {}
        self._pending: set = set()
        self._latest: dict = {}

    def record(self, key, value) -> None:
        """Append a pending event for ``key`` (writer side)."""
        chain = self._chains.get(key)
        if chain is None:
            self._chains[key] = chain = []
        chain.append((PENDING, value))
        self._pending.add(key)
        self._latest[key] = value

    def seed(self, key, value) -> None:
        """Install a base version at LSN 0 (restore / rebuild path)."""
        self._chains[key] = [(0, value)]
        self._latest[key] = value

    def latest(self, key, default=None):
        return self._latest.get(key, default)

    def value_at(self, key, lsn: Optional[int], default=None):
        """Resolve ``key`` as of ``lsn`` (None = latest)."""
        if lsn is None:
            return self._latest.get(key, default)
        chain = self._chains.get(key)
        if chain is None:
            return default
        for version_lsn, value in reversed(chain):
            if version_lsn <= lsn:
                return value
        return default

    def publish(self, lsn: int) -> None:
        """Restamp every pending event with the commit LSN."""
        if not self._pending:
            return
        for key in self._pending:
            chain = self._chains.get(key)
            if chain is None:
                continue
            # Pending events form a contiguous tail (events are appended
            # in commit order and restamped before the next commit).
            for index in range(len(chain) - 1, -1, -1):
                if chain[index][0] is not PENDING:
                    break
                chain[index] = (lsn, chain[index][1])
        self._pending.clear()

    def has_pending(self) -> bool:
        return bool(self._pending)

    def keys(self) -> Iterator:
        return iter(list(self._chains))

    def collect(self, cutoff: int) -> int:
        """Drop events unreachable by any snapshot at or above ``cutoff``.

        Keeps the newest event at or below the cutoff (the base every
        surviving snapshot resolves to) plus everything newer. Returns the
        number of events reclaimed.
        """
        reclaimed = 0
        for key in list(self._chains):
            chain = self._chains[key]
            if len(chain) <= 1:
                continue
            keep_from = 0
            for index in range(len(chain) - 1, -1, -1):
                if chain[index][0] <= cutoff:
                    keep_from = index
                    break
            if keep_from > 0:
                self._chains[key] = chain[keep_from:]
                reclaimed += keep_from
        return reclaimed

    def version_count(self) -> int:
        """Historic events beyond each key's base, for metrics. The base
        event holds the current value and is never reclaimable, so the
        fully-collected steady state reports zero."""
        return sum(
            len(chain) - 1 for chain in list(self._chains.values()) if chain
        )

    def clear(self) -> None:
        self._chains.clear()
        self._pending.clear()
        self._latest.clear()
