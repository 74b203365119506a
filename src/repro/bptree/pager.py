"""Page allocation and cache accounting for one B+-tree file.

Every tree node occupies exactly one page; visiting a node reports a touch to
the shared :class:`~repro.storage.pagecache.PageCache`, which is how cold-run
benchmarks charge simulated I/O for index reads.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.pagecache import PageCache


class TreePager:
    """Allocates page ids for tree nodes and forwards accesses to the cache."""

    def __init__(self, file_name: str, page_cache: Optional[PageCache]) -> None:
        self.file_name = file_name
        self.page_cache = page_cache
        if page_cache is not None:
            page_cache.register_file(file_name)
        self._next_page = 0
        self._free_pages: list[int] = []

    def allocate(self) -> int:
        """Reserve a page id for a new tree node."""
        if self._free_pages:
            return self._free_pages.pop()
        page_id = self._next_page
        self._next_page += 1
        return page_id

    def release(self, page_id: int) -> None:
        """Return a node's page to the free list (node merged away)."""
        self._free_pages.append(page_id)

    def touch(self, page_id: int) -> None:
        """Report a node visit to the page cache."""
        if self.page_cache is not None:
            self.page_cache.touch_page(self.file_name, page_id)

    def touch_run(self, first_page: int, count: int) -> None:
        """Report visits to a run of contiguous node pages (one lock trip)."""
        if self.page_cache is not None:
            self.page_cache.touch_run(self.file_name, first_page, count)

    @property
    def file_pages(self) -> int:
        """Pages in the backing file (high-water mark; freed pages remain)."""
        return self._next_page

    @property
    def page_size(self) -> int:
        return self.page_cache.page_size if self.page_cache is not None else 8192
