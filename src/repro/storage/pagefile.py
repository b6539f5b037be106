"""The simulated disk: a page store with read/write counters.

A :class:`PageFile` owns every page the buffer-tree spills.  Reads and
writes go through :meth:`read_page` / :meth:`write_page`, each of which
bumps an :class:`IOStats` counter — these counters are the measured
quantity of the Figure 8(b) reproduction.  Pages live in a dict rather than
on a real disk; what matters for the experiment is *when* the algorithm
would touch disk, not the bytes themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.obs import OBS, TRACE
from repro.storage.page import Page

ItemT = TypeVar("ItemT")

#: Default simulated page size, matching a common 2007-era DB page.
DEFAULT_PAGE_BYTES = 8_192


@dataclass
class IOStats:
    """Counters of explicit page I/O operations.

    ``fsyncs`` counts durability barriers (WAL group commits, checkpoint
    publishes) — real I/O stalls, but not page transfers, so it is *not*
    part of ``total``, which remains the paper's page-I/O quantity.
    """

    reads: int = 0
    writes: int = 0
    fsyncs: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> "IOStats":
        """A copy, for before/after deltas."""
        return IOStats(self.reads, self.writes, self.fsyncs)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """I/Os performed since ``earlier`` was snapshotted."""
        return IOStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.fsyncs - earlier.fsyncs,
        )


@dataclass
class PageFile(Generic[ItemT]):
    """A simulated paged disk.

    ``page_bytes`` and ``record_bytes`` determine the per-page item capacity
    ``B = page_bytes // record_bytes`` of the paper's I/O model.
    """

    page_bytes: int = DEFAULT_PAGE_BYTES
    record_bytes: int = 36
    stats: IOStats = field(default_factory=IOStats)
    _pages: dict[int, Page[ItemT]] = field(default_factory=dict)
    _next_id: int = 0

    def __post_init__(self) -> None:
        if self.page_bytes < self.record_bytes:
            raise ValueError(
                f"page of {self.page_bytes} bytes cannot hold a "
                f"{self.record_bytes}-byte record"
            )

    @property
    def items_per_page(self) -> int:
        """``B``: how many records fit on one page."""
        return self.page_bytes // self.record_bytes

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def allocate(self) -> Page[ItemT]:
        """Create a fresh empty page (no I/O is charged for allocation)."""
        if OBS.enabled:
            OBS.count("page.allocations")
        page: Page[ItemT] = Page(self._next_id, self.items_per_page)
        self._pages[page.page_id] = page
        self._next_id += 1
        return page

    def read_page(self, page_id: int) -> Page[ItemT]:
        """Fetch a page from "disk", charging one read."""
        self.stats.reads += 1
        if OBS.enabled:
            OBS.count("page.reads")
        if TRACE.enabled:
            TRACE.instant("page.read", page_id=page_id)
        return self._pages[page_id]

    def write_page(self, page: Page[ItemT]) -> None:
        """Persist a page to "disk", charging one write."""
        self.stats.writes += 1
        if OBS.enabled:
            OBS.count("page.writes")
        if TRACE.enabled:
            TRACE.instant("page.write", page_id=page.page_id)
        self._pages[page.page_id] = page

    def free(self, page_id: int) -> None:
        """Release a page (no I/O charged — deallocation is a metadata op)."""
        self._pages.pop(page_id, None)
