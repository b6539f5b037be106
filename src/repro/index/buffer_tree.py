"""Buffer-tree bulk loading (Arge; van den Bercken, Seeger & Widmayer).

The paper's §2.1 loader: instead of trickling records root-to-leaf one at a
time, every internal node owns an external *buffer*.  A batch insert merely
appends to the root buffer; when a node's buffer exceeds its page budget the
buffered records are "re-activated" and pushed one level down — into the
child buffers, or straight into the leaves when the children are leaves.
Restructuring (leaf splits cascading upward) happens during those pushes.
The effect is the external-sort-like I/O bound
``O(N/B · log_{M/B}(N/B))`` for a bulk load, and respectable constants even
in memory, because per-record work is amortized across a whole buffer.

Correctness note on split timing: the underlying
:class:`~repro.index.rtree.RPlusTree` propagates internal-node splits
immediately rather than deferring them as the original buffer-tree does.
The two schedules are equivalent here because a node's buffer is always
drained *before* any insert below it can occur, so every node that splits
has an empty buffer — the loader never needs to split a buffer.  (A leaf
group's insert takes a fresh root path to its leaf, and a split propagates
only up that path: the leaf's ancestors, whose buffers the enclosing flush
chain, or the top-down drain, emptied before descending past them.)

Buffers live on pages of the simulated storage layer when a
:class:`~repro.storage.buffer_pool.BufferPool` is supplied, so clearing a
cold buffer costs counted page reads and spilling a hot one costs counted
writes — the measured quantity of Figure 8(b).  Without a pool the loader
runs fully in memory (the fast path for the wall-clock figures).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.dataset.record import Record
from repro.index.node import InternalNode
from repro.index.rtree import RPlusTree
from repro.obs import OBS, TRACE, span
from repro.storage.buffer_pool import BufferPool

#: Default number of buffer pages a node may hold before it is cleared.
DEFAULT_BUFFER_PAGES = 4

#: Buffer capacity, in records, used when no buffer pool is attached.
DEFAULT_MEMORY_BUFFER_RECORDS = 512


class _NodeBuffer:
    """One node's external buffer: a list of page ids, or an in-memory list."""

    __slots__ = ("node", "page_ids", "records", "count")

    def __init__(self, node: InternalNode) -> None:
        self.node = node
        self.page_ids: list[int] = []
        self.records: list[Record] = []
        self.count = 0


class BufferTreeLoader:
    """Batch loader that amortizes insertions through per-node buffers.

    Parameters
    ----------
    tree:
        The target index (normally empty, but incremental batch loads into a
        populated tree work identically — this is the Figure 7(b) path).
    pool:
        Optional buffer pool; when given, buffers are paged through it and
        all buffer traffic is I/O-accounted.  When omitted, buffers are
        plain in-memory lists.
    buffer_pages:
        Page budget per node buffer before it is cleared downward.
    """

    def __init__(
        self,
        tree: RPlusTree,
        pool: BufferPool[Record] | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> None:
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be at least 1")
        self._tree = tree
        self._pool = pool
        self._buffer_pages = buffer_pages
        if pool is not None:
            self._records_per_page = pool.pagefile.items_per_page
        else:
            self._records_per_page = DEFAULT_MEMORY_BUFFER_RECORDS
        self._buffers: dict[int, _NodeBuffer] = {}

    @property
    def tree(self) -> RPlusTree:
        return self._tree

    @property
    def buffered_records(self) -> int:
        """Records currently parked in buffers (not yet in leaves)."""
        return sum(buffer.count for buffer in self._buffers.values())

    # -- public API -----------------------------------------------------------

    def load(self, records: Iterable[Record]) -> int:
        """Bulk-load a record stream and fully drain the buffers.

        Returns the number of records actually consumed from the stream —
        the count callers should report, rather than whatever the stream's
        own metadata claims.
        """
        with span("buffer_tree.load"):
            consumed = self.insert_batch(records)
            self.drain()
        return consumed

    def insert_batch(self, records: Iterable[Record]) -> int:
        """Push a batch into the tree through the root buffer.

        Returns the number of records consumed.  Until :meth:`drain` is
        called some records may still sit in buffers; the tree's leaf
        partitioning only reflects fully delivered records.
        """
        with span("buffer_tree.insert_batch"):
            return self._insert_batch(records)

    def _insert_batch(self, records: Iterable[Record]) -> int:
        consumed = 0
        pending: list[Record] = []
        self._tree.begin_bulk()
        try:
            for record in records:
                consumed += 1
                # Bootstrap: while the tree is a bare leaf, insert directly.
                root = self._tree.root
                if root is None or root.is_leaf:
                    self._tree.insert(record)
                    continue
                pending.append(record)
                if len(pending) >= self._records_per_page:
                    self._push_to_buffer(root, pending)  # type: ignore[arg-type]
                    pending = []
                    # The streaming discipline of the algorithm: the moment
                    # the root buffer breaches its page budget, its records
                    # are "re-activated" and pushed down — the tree grows
                    # steadily instead of swallowing the whole input in one
                    # flush.
                    buffer = self._buffers.get(root.node_id)
                    if buffer is not None and self._over_budget(buffer):
                        self._flush(buffer)
        finally:
            # Also when the stream raises: every consumed record is applied.
            self._finish_batch(pending, consumed)
        return consumed

    def _finish_batch(self, pending: list[Record], consumed: int) -> None:
        """Deliver the batch's last partial page and settle the root buffer."""
        root = self._tree.root
        if pending:
            if root is not None and not root.is_leaf:
                self._push_to_buffer(root, pending)  # type: ignore[arg-type]
            else:
                for record in pending:
                    self._tree.insert(record)
        # Reading the input stream costs one page read per B records.
        if self._pool is not None and consumed:
            pages = math.ceil(consumed / self._records_per_page)
            self._pool.pagefile.stats.reads += pages
            if OBS.enabled:
                OBS.count("page.reads", pages)
        # Clear the root buffer if it breached its budget.
        root = self._tree.root
        if root is not None and not root.is_leaf:
            buffer = self._buffers.get(root.node_id)
            if buffer is not None and self._over_budget(buffer):
                self._flush(buffer)

    def drain(self) -> None:
        """Clear every buffer, top level first, until all records reach leaves.

        Top-down order guarantees that no node receives buffered records
        after its own buffer was cleared, so one sweep per level suffices
        (modulo threshold-triggered recursive flushes, which are safe in any
        order).
        """
        if OBS.enabled:
            OBS.count("buffer_tree.drains")
        with span("buffer_tree.drain"):
            while self._buffers:
                buffer = max(self._buffers.values(), key=lambda b: b.node.level)
                if OBS.enabled:
                    OBS.count("buffer_tree.drain_sweeps")
                if TRACE.enabled:
                    TRACE.instant(
                        "buffer_tree.drain_sweep",
                        level=buffer.node.level,
                        buffered=buffer.count,
                    )
                self._flush(buffer)
            # Splits deferred during bulk mode are resolved now, so the
            # occupancy invariant holds the moment the drain returns.
            self._tree.finish_bulk()

    # -- buffer mechanics --------------------------------------------------------

    def _push_to_buffer(self, node: InternalNode, records: list[Record]) -> None:
        if OBS.enabled:
            OBS.count("buffer_tree.pushes")
            OBS.count("buffer_tree.pushed_records", len(records))
        buffer = self._buffers.get(node.node_id)
        if buffer is None:
            buffer = _NodeBuffer(node)
            self._buffers[node.node_id] = buffer
        if self._pool is None:
            buffer.records.extend(records)
        else:
            remaining = list(records)
            while remaining:
                if buffer.page_ids:
                    page = self._pool.get(buffer.page_ids[-1], for_write=True)
                    if not page.is_full:
                        remaining = page.extend_upto(remaining)
                        continue
                page = self._pool.new_page()
                buffer.page_ids.append(page.page_id)
                remaining = page.extend_upto(remaining)
        buffer.count += len(records)

    def _over_budget(self, buffer: _NodeBuffer) -> bool:
        budget_records = self._buffer_pages * self._records_per_page
        return buffer.count > budget_records

    def _take_records(self, buffer: _NodeBuffer) -> list[Record]:
        """Read a buffer's records (charging I/O) and release its pages."""
        if self._pool is None:
            records = buffer.records
            buffer.records = []
        else:
            records = []
            for page_id in buffer.page_ids:
                page = self._pool.get(page_id)
                records.extend(page.items)
                self._pool.free(page_id)
            buffer.page_ids = []
        buffer.count = 0
        return records

    def _flush(self, buffer: _NodeBuffer) -> None:
        """Clear one buffer: push its records one level down.

        By the drain-before-descend discipline this node's buffer is empty
        for the whole time any structural change below it can occur, which
        is what makes immediate split propagation in the tree equivalent to
        the original algorithm's deferred restructuring.
        """
        with span(
            "buffer_tree.flush", level=buffer.node.level, records=buffer.count
        ):
            node = buffer.node
            self._buffers.pop(node.node_id, None)
            records = self._take_records(buffer)
            if not records:
                return
            if OBS.enabled:
                OBS.count("buffer_tree.flushes")
                OBS.observe("buffer_tree.records_per_flush", len(records))
            children_are_leaves = node.level == 1
            if children_are_leaves:
                # Deliver straight into the leaves, batched per leaf; splits
                # propagate upward through the tree machinery as they happen.
                # Routing from a possibly-stale node object is sound: splits
                # share, rather than copy, the cut subtrees.
                self._tree.bulk_insert_descending(node, records)
                return
            # Children are internal: partition the buffer by routing one level,
            # append to the child buffers, then clear any that went over budget.
            groups: dict[int, tuple[InternalNode, list[Record]]] = {}
            for record in records:
                child = node.route(record.point)
                entry = groups.get(child.node_id)
                if entry is None:
                    groups[child.node_id] = (child, [record])  # type: ignore[arg-type]
                else:
                    entry[1].append(record)
            for child, child_records in groups.values():
                self._push_to_buffer(child, child_records)
            for child, _child_records in list(groups.values()):
                child_buffer = self._buffers.get(child.node_id)
                if child_buffer is not None and self._over_budget(child_buffer):
                    self._flush(child_buffer)
