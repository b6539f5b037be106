"""The buffer-tree bulk loader: equivalence, batching, I/O accounting."""

from __future__ import annotations

import pytest

from repro.dataset.record import Record
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.leaf_store import PagedLeafStore
from repro.index.rtree import RPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile
from tests.conftest import random_records


def fresh_tree(k: int = 3, **kwargs: object) -> RPlusTree:
    return RPlusTree(dimensions=3, k=k, domain_extents=(100.0,) * 3, **kwargs)  # type: ignore[arg-type]


class TestLoading:
    def test_load_preserves_every_record(self) -> None:
        records = random_records(2_000, seed=1)
        tree = fresh_tree()
        BufferTreeLoader(tree).load(records)
        tree.check_invariants()
        assert len(tree) == 2_000
        loaded = sorted(r.rid for leaf in tree.leaves() for r in leaf.records)
        assert loaded == list(range(2_000))

    def test_same_partitioning_properties_as_tuple_loading(self) -> None:
        """Both loaders must satisfy the same invariants on the same data;
        the partitionings themselves may differ (different split inputs)."""
        records = random_records(1_500, seed=2)
        buffered = fresh_tree()
        BufferTreeLoader(buffered).load(records)
        tuple_loaded = fresh_tree()
        tuple_loaded.insert_all(records)
        for tree in (buffered, tuple_loaded):
            tree.check_invariants()
            assert len(tree) == 1_500
            assert all(len(leaf.records) >= 3 for leaf in tree.leaves())

    def test_multiple_batches_accumulate(self) -> None:
        records = random_records(1_200, seed=3)
        tree = fresh_tree()
        loader = BufferTreeLoader(tree)
        for start in range(0, 1_200, 400):
            loader.insert_batch(records[start : start + 400])
            loader.drain()
            tree.check_invariants()
        assert len(tree) == 1_200

    def test_buffered_records_visible_after_drain_only(self) -> None:
        records = random_records(3_000, seed=4)
        tree = fresh_tree()
        loader = BufferTreeLoader(tree, buffer_pages=8)
        loader.insert_batch(records)
        in_leaves = len(tree)
        assert in_leaves + loader.buffered_records == 3_000
        loader.drain()
        assert loader.buffered_records == 0
        assert len(tree) == 3_000

    def test_empty_batch_is_noop(self) -> None:
        tree = fresh_tree()
        loader = BufferTreeLoader(tree)
        assert loader.insert_batch([]) == 0
        loader.drain()
        assert len(tree) == 0

    def test_invalid_buffer_pages(self) -> None:
        with pytest.raises(ValueError):
            BufferTreeLoader(fresh_tree(), buffer_pages=0)

    def test_incremental_after_bulk(self) -> None:
        """The Figure 7(b) pattern: bulk first, then incremental batches."""
        tree = fresh_tree()
        loader = BufferTreeLoader(tree)
        loader.load(random_records(1_000, seed=6))
        extra = [
            Record(10_000 + r.rid, r.point, r.sensitive)
            for r in random_records(500, seed=7)
        ]
        loader.insert_batch(extra)
        loader.drain()
        tree.check_invariants()
        assert len(tree) == 1_500


class TestIOAccounting:
    def load_with_memory(self, memory_bytes: int, records: int = 4_000) -> int:
        pagefile: PageFile[Record] = PageFile(page_bytes=512, record_bytes=12)
        pool: BufferPool[Record] = BufferPool(pagefile, memory_bytes)
        tree = RPlusTree(
            dimensions=3,
            k=5,
            domain_extents=(100.0,) * 3,
            leaf_store=PagedLeafStore(pool),
        )
        loader = BufferTreeLoader(tree, pool=pool)
        loader.load(random_records(records, seed=8))
        pool.flush()
        tree.check_invariants()
        assert len(tree) == records
        return pagefile.stats.total

    def test_io_counted(self) -> None:
        assert self.load_with_memory(64 * 512) > 0

    def test_less_memory_more_io(self) -> None:
        plentiful = self.load_with_memory(256 * 512)
        scarce = self.load_with_memory(16 * 512)
        assert scarce > plentiful

    def test_input_charge(self) -> None:
        """Reading the input bills one page read per B input records."""
        pagefile: PageFile[Record] = PageFile(page_bytes=512, record_bytes=12)
        pool: BufferPool[Record] = BufferPool(pagefile, 512 * 128)
        tree = RPlusTree(dimensions=3, k=5, domain_extents=(100.0,) * 3)
        loader = BufferTreeLoader(tree, pool=pool)
        before = pagefile.stats.reads
        loader.insert_batch(random_records(100, seed=9))
        items_per_page = 512 // 12
        expected_pages = -(-100 // items_per_page)  # ceil
        assert pagefile.stats.reads >= before + expected_pages
