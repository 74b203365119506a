"""Simulated page cache with hit/miss accounting.

The paper's evaluation distinguishes *memory-cached* from *cold* runs (§6.3):
cold runs re-open the database so every page must be fetched from the NVMe SSD
again. A pure-Python reproduction cannot meaningfully measure real disk I/O, so
this module simulates it: every record access is mapped to a page id; the cache
tracks which pages are resident (bounded LRU) and counts hits, misses and
evictions. A benchmark's *cold* variant flushes the cache and charges a
configurable synthetic latency per miss (NVMe-like, default 80 µs per 8 KiB
page). Because plan quality determines how many distinct pages are touched,
this preserves the cold/cached orderings and ratios the paper reports.

The cache is deliberately an *accounting* layer: record payloads live in the
stores themselves; the cache only tracks residency.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

DEFAULT_PAGE_SIZE = 8192
"""Page size in bytes; Neo4j's page cache uses 8 KiB pages."""

DEFAULT_MISS_LATENCY_S = 80e-6
"""Simulated latency charged per page miss (NVMe-class random read)."""


@dataclass
class PageCacheStats:
    """Counters accumulated by a :class:`PageCache`.

    ``simulated_io_seconds`` is the synthetic cost of all misses so far; the
    benchmark harness adds it to wall-clock time for cold-run figures.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    miss_latency_s: float = DEFAULT_MISS_LATENCY_S

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def simulated_io_seconds(self) -> float:
        return self.misses * self.miss_latency_s

    def snapshot(self) -> "PageCacheStats":
        """Return an independent copy of the current counters."""
        return PageCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            flushes=self.flushes,
            miss_latency_s=self.miss_latency_s,
        )

    def delta_since(self, earlier: "PageCacheStats") -> "PageCacheStats":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        return PageCacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            flushes=self.flushes - earlier.flushes,
            miss_latency_s=self.miss_latency_s,
        )


@dataclass
class _FileState:
    """Residency bookkeeping for one paged file."""

    name: str
    resident: OrderedDict = field(default_factory=OrderedDict)


class PageCache:
    """Bounded LRU page cache shared by all stores of one database.

    Each store registers a *paged file* (by name) and then calls
    :meth:`touch` with a byte offset (or :meth:`touch_page` with a page id)
    whenever it reads or writes a record. Eviction is global LRU across files,
    approximated per-file for simplicity (the distinction does not affect any
    reported metric: only total resident pages are bounded).
    """

    def __init__(
        self,
        capacity_pages: int = 1 << 20,
        page_size: int = DEFAULT_PAGE_SIZE,
        miss_latency_s: float = DEFAULT_MISS_LATENCY_S,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self.stats = PageCacheStats(miss_latency_s=miss_latency_s)
        self._files: dict[str, _FileState] = {}
        self._resident_total = 0
        self._lru: OrderedDict = OrderedDict()  # (file, page) -> None
        self.enabled = True
        # One lock guards residency state and the hit/miss/eviction
        # counters so they stay consistent under the concurrent query
        # service's worker threads.
        self._lock = threading.Lock()

    def register_file(self, name: str) -> None:
        """Create bookkeeping for a paged file; idempotent."""
        self._files.setdefault(name, _FileState(name))

    def touch(self, file_name: str, byte_offset: int) -> bool:
        """Record an access at ``byte_offset`` in ``file_name``.

        Returns True on a hit, False on a miss (after loading the page).
        """
        return self.touch_page(file_name, byte_offset // self.page_size)

    def touch_page(self, file_name: str, page_id: int) -> bool:
        """Record an access to page ``page_id``; returns True on a hit."""
        if not self.enabled:
            return True
        with self._lock:
            key = (file_name, page_id)
            lru = self._lru
            # Hits are the overwhelmingly common case in warm scans, so
            # the hit path does nothing but the LRU bump.
            if key in lru:
                lru.move_to_end(key)
                self.stats.hits += 1
                return True
            state = self._files.get(file_name)
            if state is None:
                state = _FileState(file_name)
                self._files[file_name] = state
            self.stats.misses += 1
            if self._resident_total >= self.capacity_pages:
                old_key, _ = lru.popitem(last=False)
                old_state = self._files[old_key[0]]
                old_state.resident.pop(old_key[1], None)
                self._resident_total -= 1
                self.stats.evictions += 1
            lru[key] = None
            state.resident[page_id] = None
            self._resident_total += 1
            return False

    def touch_run(self, file_name: str, first_page: int, count: int) -> int:
        """Record accesses to ``count`` contiguous pages from ``first_page``
        (sequential scans: B+-tree leaf chains, record-store sweeps).
        Returns the number of hits in the run."""
        return self.touch_pages(file_name, range(first_page, first_page + count))

    def touch_pages(self, file_name: str, pages) -> int:
        """Record accesses to the page ids in ``pages``, in order.

        Equivalent to one :meth:`touch_page` call per page — same hits,
        misses, evictions and LRU order — but takes the lock once for the
        whole batch, which is what relationship-chain walks use to cut lock
        traffic. Returns the number of hits in the batch.
        """
        if not self.enabled:
            return len(pages)
        hits = 0
        with self._lock:
            state = self._files.get(file_name)
            if state is None:
                state = _FileState(file_name)
                self._files[file_name] = state
            lru = self._lru
            stats = self.stats
            resident = state.resident
            capacity = self.capacity_pages
            for page_id in pages:
                key = (file_name, page_id)
                if key in lru:
                    lru.move_to_end(key)
                    stats.hits += 1
                    hits += 1
                    continue
                stats.misses += 1
                if self._resident_total >= capacity:
                    old_key, _ = lru.popitem(last=False)
                    self._files[old_key[0]].resident.pop(old_key[1], None)
                    self._resident_total -= 1
                    stats.evictions += 1
                lru[key] = None
                resident[page_id] = None
                self._resident_total += 1
        return hits

    def flush(self) -> None:
        """Drop all resident pages (the paper's database re-open for cold runs)."""
        with self._lock:
            for state in self._files.values():
                state.resident.clear()
            self._lru.clear()
            self._resident_total = 0
            self.stats.flushes += 1

    @property
    def resident_pages(self) -> int:
        return self._resident_total
