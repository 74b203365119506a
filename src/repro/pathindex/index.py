"""A single path index: one pattern, one B+-tree (§2.3.1).

Entries are identifier tuples ``(n0, r0, n1, ..., nk)`` in pattern order.
The index never stores pattern information — each pattern has its own tree —
so the only data are the identifiers, exactly as in Figure 4.

Under MVCC (see ``repro.storage.versions``) a *sealed* index never mutates
its shared B+-tree during commits. Maintenance appends to a delta overlay —
an append-only list of ``(lsn, is_add, entry)`` events stamped at commit
publish — and every scan merges the tree with the overlay filtered to the
reader's snapshot LSN. The tree itself only changes while the index is
*unsealed* (initial population, checkpoint restore) or during a fold, both
of which run with no live snapshots. Lock-free readers therefore never see
a half-applied B+-tree split.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, Optional, Sequence

from repro.bptree import BPlusTree
from repro.bptree.keys import prefix_range
from repro.errors import PathIndexError
from repro.pathindex.pattern import PathPattern
from repro.storage.pagecache import PageCache
from repro.storage.versions import PENDING, VersionClock


class PathIndex:
    """B+-tree-backed index over one path pattern."""

    def __init__(
        self,
        name: str,
        pattern: PathPattern,
        page_cache: Optional[PageCache] = None,
        clock: Optional[VersionClock] = None,
    ) -> None:
        self.name = name
        self.pattern = pattern
        self.tree = BPlusTree(
            key_width=pattern.key_width,
            page_cache=page_cache,
            file_name=f"pathindex.{name}.db",
        )
        #: The store's version clock; ``None`` for standalone (test) use,
        #: in which case every read resolves at latest.
        self.clock = clock
        #: While False (construction, restore) adds/removes go straight to
        #: the tree; once sealed they go through the delta overlay.
        self.sealed = False
        #: Commit LSN at which the index became visible to planners.
        #: ``PENDING`` while a build is in flight (invisible to everyone).
        self.created_lsn = 0
        # The overlay: append-only (lsn, is_add, entry) events, plus a
        # latest-membership cache and the net entry-count correction.
        self._deltas: list[tuple[float, bool, tuple[int, ...]]] = []
        self._delta_latest: dict[tuple[int, ...], bool] = {}
        self._delta_net = 0

    # ------------------------------------------------------------------
    # MVCC lifecycle
    # ------------------------------------------------------------------

    def seal(self, created_lsn: int) -> None:
        """End construction: future writes become overlay deltas and the
        index is planner-visible to snapshots at ``created_lsn`` or later."""
        self.sealed = True
        self.created_lsn = created_lsn

    def _reading_lsn(self) -> Optional[float]:
        """The ambient snapshot's LSN, or None for latest-mode reads."""
        if self.clock is None:
            return None
        return self.clock.reading_lsn()

    # -- commit-publish protocol (GraphStore publisher) -----------------

    def has_pending(self) -> bool:
        deltas = self._deltas
        return bool(deltas) and deltas[-1][0] is PENDING

    def publish(self, lsn: int) -> None:
        """Stamp the contiguous pending tail of the overlay at ``lsn``."""
        deltas = self._deltas
        for i in range(len(deltas) - 1, -1, -1):
            stamp, is_add, entry = deltas[i]
            if stamp is not PENDING:
                break
            deltas[i] = (lsn, is_add, entry)

    def delta_count(self) -> int:
        return len(self._deltas)

    def fold(self) -> int:
        """Apply every *stamped* delta to the tree and drop it.

        Caller must guarantee no live snapshots (they resolve against the
        tree) and hold the store write lock. Pending deltas of an in-flight
        commit (auto-checkpoint runs mid-commit) are kept. Returns the
        number of folded deltas.
        """
        deltas = self._deltas
        keep: list[tuple[float, bool, tuple[int, ...]]] = []
        folded = 0
        for stamp, is_add, entry in deltas:
            if stamp is PENDING:
                keep.append((stamp, is_add, entry))
                continue
            if is_add:
                self.tree.insert(entry)
            else:
                self.tree.delete(entry)
            folded += 1
        if folded:
            latest = {entry: is_add for _, is_add, entry in keep}
            net = sum(1 if is_add else -1 for _, is_add, _ in keep)
            self._delta_latest = latest
            self._delta_net = net
            self._deltas = keep
        return folded

    # ------------------------------------------------------------------
    # Entry operations
    # ------------------------------------------------------------------

    def add(self, entry: Sequence[int]) -> bool:
        """Insert one path occurrence; returns False if already present."""
        entry_tuple = self._validated(entry)
        if not self.sealed:
            return self.tree.insert(entry_tuple)
        if self._member_latest(entry_tuple):
            return False
        self._deltas.append((PENDING, True, entry_tuple))
        self._delta_latest[entry_tuple] = True
        self._delta_net += 1
        return True

    def remove(self, entry: Sequence[int]) -> bool:
        """Remove one path occurrence; returns False if absent."""
        entry_tuple = self._validated(entry)
        if not self.sealed:
            return self.tree.delete(entry_tuple)
        if not self._member_latest(entry_tuple):
            return False
        self._deltas.append((PENDING, False, entry_tuple))
        self._delta_latest[entry_tuple] = False
        self._delta_net -= 1
        return True

    def __contains__(self, entry: Sequence[int]) -> bool:
        entry_tuple = tuple(entry)
        if self._deltas:
            lsn = self._reading_lsn()
            if lsn is None:
                state = self._delta_latest.get(entry_tuple)
                if state is not None:
                    return state
            else:
                for stamp, is_add, delta_entry in reversed(self._deltas):
                    if stamp > lsn:
                        continue
                    if delta_entry == entry_tuple:
                        return is_add
        return entry_tuple in self.tree

    def _member_latest(self, entry_tuple: tuple[int, ...]) -> bool:
        state = self._delta_latest.get(entry_tuple)
        if state is not None:
            return state
        return entry_tuple in self.tree

    # ------------------------------------------------------------------
    # Scans (the three access paths of §5.1)
    # ------------------------------------------------------------------

    def _overlay_at(
        self, lsn: Optional[float], prefix: tuple[int, ...] = ()
    ) -> dict[tuple[int, ...], bool]:
        """Net overlay membership visible at ``lsn`` (latest when None),
        restricted to entries starting with ``prefix``."""
        out: dict[tuple[int, ...], bool] = {}
        width = len(prefix)
        # Appends race-free: events landing after iteration starts are
        # either PENDING or stamped above any pinned snapshot's LSN.
        for stamp, is_add, entry in self._deltas:
            if lsn is not None and stamp > lsn:
                continue
            if width and entry[:width] != prefix:
                continue
            out[entry] = is_add
        return out

    def _merged(
        self,
        tree_iter: Iterator[tuple[int, ...]],
        overlay: dict[tuple[int, ...], bool],
        adds: Optional[Sequence[tuple[int, ...]]] = None,
        position: int = 0,
    ) -> Iterator[tuple[int, ...]]:
        """Sorted merge of a tree scan with an overlay; ``adds`` are the
        overlay's live entries, sorted (worked out here when not given),
        of which the scanned key range starts at ``position``."""
        if adds is None:
            adds = sorted(entry for entry, alive in overlay.items() if alive)
        count = len(adds)
        for entry in tree_iter:
            while position < count and adds[position] < entry:
                yield adds[position]
                position += 1
            if position < count and adds[position] == entry:
                position += 1  # re-added tree entry: emit once, below
            if overlay.get(entry) is False:
                continue
            yield entry
        while position < count:
            yield adds[position]
            position += 1

    def scan(self) -> Iterator[tuple[int, ...]]:
        if not self._deltas:
            return self.tree.scan()
        return self._merged(self.tree.scan(), self._overlay_at(self._reading_lsn()))

    def scan_prefix(self, prefix: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if not self._deltas:
            return self.tree.scan_prefix(prefix)
        return self.seeker(prefix)(prefix_range(prefix, self.pattern.key_width)[0])

    def seeker(
        self, prefix: Sequence[int] = ()
    ) -> Callable[[Sequence[int]], Iterator[tuple[int, ...]]]:
        """``seek(lower)``: the entries ≥ ``lower`` that start with
        ``prefix``, in key order — one run of a (bounded) skip-scan, §5.1.2.

        The reader's overlay is resolved here, once per run; each seek only
        slices it by bisection. A skip-scan restarts its seek per violating
        subtree and must not re-merge the delta list per restart.
        """
        tree_scan = self.tree.scan_from
        upper = prefix_range(prefix, self.pattern.key_width)[1] if prefix else None
        if not self._deltas:
            if upper is None:
                return tree_scan
            return lambda lower: tree_scan(lower, upper)
        overlay = self._overlay_at(self._reading_lsn(), tuple(prefix))
        adds = sorted(entry for entry, alive in overlay.items() if alive)

        def seek(lower: Sequence[int]) -> Iterator[tuple[int, ...]]:
            lower = tuple(lower)
            return self._merged(
                tree_scan(lower, upper), overlay, adds, bisect.bisect_left(adds, lower)
            )

        return seek

    def count_prefix(self, prefix: Sequence[int]) -> int:
        prefix_tuple = tuple(prefix)
        count = self.tree.count_prefix(prefix_tuple)
        if self._deltas:
            overlay = self._overlay_at(self._reading_lsn(), prefix_tuple)
            for entry, alive in overlay.items():
                in_tree = entry in self.tree
                if alive and not in_tree:
                    count += 1
                elif not alive and in_tree:
                    count -= 1
        return count

    # ------------------------------------------------------------------
    # Statistics (Table 2/6/9/12 columns)
    # ------------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of indexed path occurrences (at the reader's snapshot)."""
        if not self._deltas:
            return len(self.tree)
        lsn = self._reading_lsn()
        if lsn is None:
            return len(self.tree) + self._delta_net
        net = 0
        for entry, alive in self._overlay_at(lsn).items():
            in_tree = entry in self.tree
            if alive and not in_tree:
                net += 1
            elif not alive and in_tree:
                net -= 1
        return len(self.tree) + net

    def size_on_disk(self) -> int:
        return self.tree.size_on_disk()

    def total_data_size(self) -> int:
        return self.tree.total_data_size()

    def _validated(self, entry: Sequence[int]) -> tuple[int, ...]:
        entry_tuple = tuple(entry)
        if len(entry_tuple) != self.pattern.key_width:
            raise PathIndexError(
                f"index {self.name!r} expects {self.pattern.key_width} "
                f"identifiers, got {len(entry_tuple)}"
            )
        return entry_tuple

    def __repr__(self) -> str:
        return f"PathIndex({self.name!r}, {self.pattern}, n={self.cardinality})"
