"""An LRU buffer pool over the simulated page file.

The pool holds at most ``memory_bytes // page_bytes`` pages in memory.
Accessing a cached page is free; a miss charges one disk read (via the
:class:`~repro.storage.pagefile.PageFile` counters), and evicting a dirty
page charges one write.  This is the mechanism behind the paper's claim
that "I/O costs increase by less than a factor of two when the allotted
memory is reduced by a factor of two" (Figure 8(b)): halving
``memory_bytes`` halves the pool and increases misses sub-linearly because
the buffer-tree's access pattern is strongly skewed toward the upper tree
levels.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

from repro.obs import OBS, TRACE, span
from repro.storage.page import Page
from repro.storage.pagefile import PageFile

ItemT = TypeVar("ItemT")


class BufferPool(Generic[ItemT]):
    """An LRU cache of pages with dirty-page write-back."""

    def __init__(self, pagefile: PageFile[ItemT], memory_bytes: int) -> None:
        capacity = memory_bytes // pagefile.page_bytes
        if capacity < 1:
            raise ValueError(
                f"memory budget of {memory_bytes} bytes holds no "
                f"{pagefile.page_bytes}-byte page"
            )
        self._pagefile = pagefile
        self._capacity = capacity
        self._cached: OrderedDict[int, Page[ItemT]] = OrderedDict()
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    @property
    def pagefile(self) -> PageFile[ItemT]:
        """The backing simulated disk (exposes the I/O counters)."""
        return self._pagefile

    @property
    def capacity_pages(self) -> int:
        """How many pages the memory budget holds."""
        return self._capacity

    def new_page(self) -> Page[ItemT]:
        """Allocate a fresh page directly into the pool, marked dirty."""
        page = self._pagefile.allocate()
        self._admit(page, dirty=True)
        return page

    def get(self, page_id: int, for_write: bool = False) -> Page[ItemT]:
        """Fetch a page, charging a disk read only on a pool miss."""
        cached = self._cached.get(page_id)
        if cached is not None:
            self.hits += 1
            if OBS.enabled:
                OBS.count("pool.hits")
            self._cached.move_to_end(page_id)
            if for_write:
                self._dirty.add(page_id)
            return cached
        self.misses += 1
        if OBS.enabled:
            OBS.count("pool.misses")
        page = self._pagefile.read_page(page_id)
        self._admit(page, dirty=for_write)
        return page

    def mark_dirty(self, page_id: int) -> None:
        """Record that a cached page has been modified in place.

        Raises ``KeyError`` when the page is not resident: the caller
        mutated a page object the pool has since evicted, so silently
        ignoring the call would drop that modification on the floor (the
        evicted copy was written back *before* the change).  Callers must
        hold the page via :meth:`get` — pass ``for_write=True`` to mark it
        dirty atomically with the fetch, which every in-tree mutation site
        (:class:`~repro.index.leaf_store.PagedLeafStore`) does.
        """
        if page_id not in self._cached:
            raise KeyError(
                f"page {page_id} is not resident in the pool; re-fetch it "
                "with get(page_id, for_write=True) before modifying it"
            )
        self._dirty.add(page_id)

    def free(self, page_id: int) -> None:
        """Drop a page entirely (it will never be written back)."""
        self._cached.pop(page_id, None)
        self._dirty.discard(page_id)
        self._pagefile.free(page_id)

    def flush(self) -> None:
        """Write back every dirty cached page (end-of-load barrier)."""
        with span("pool.flush", dirty=len(self._dirty)):
            for page_id in sorted(self._dirty):
                page = self._cached.get(page_id)
                if page is not None:
                    if OBS.enabled:
                        OBS.count("pool.writebacks")
                    self._pagefile.write_page(page)
            self._dirty.clear()

    def _admit(self, page: Page[ItemT], dirty: bool) -> None:
        while len(self._cached) >= self._capacity:
            victim_id, victim = self._cached.popitem(last=False)
            if OBS.enabled:
                OBS.count("pool.evictions")
            if TRACE.enabled:
                TRACE.instant("pool.eviction", page_id=victim_id)
            if victim_id in self._dirty:
                if OBS.enabled:
                    OBS.count("pool.writebacks")
                self._pagefile.write_page(victim)
                self._dirty.discard(victim_id)
        self._cached[page.page_id] = page
        if dirty:
            self._dirty.add(page.page_id)
