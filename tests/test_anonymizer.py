"""The R+-tree anonymizer end to end."""

from __future__ import annotations

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.privacy.kanonymity import verify_release
from repro.privacy.ldiversity import DistinctLDiversity
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile
from tests import oracles
from tests.conftest import random_records


@pytest.fixture
def loaded(medium_table: Table) -> RTreeAnonymizer:
    anonymizer = RTreeAnonymizer(medium_table, base_k=5)
    anonymizer.bulk_load(medium_table)
    return anonymizer


class TestBulkAnonymization:
    def test_release_passes_full_audit(self, loaded, medium_table) -> None:
        for k in (5, 10, 25):
            release = loaded.anonymize(k)
            assert verify_release(release, medium_table, k) == []

    def test_release_below_base_k_rejected(self, loaded) -> None:
        with pytest.raises(ValueError):
            loaded.anonymize(3)

    def test_release_above_population_rejected(self, schema3) -> None:
        table = Table(schema3, random_records(8, seed=1))
        anonymizer = RTreeAnonymizer(table, base_k=5)
        anonymizer.bulk_load(table)
        with pytest.raises(ValueError):
            anonymizer.anonymize(20)

    def test_unknown_strategy_rejected(self, loaded) -> None:
        with pytest.raises(ValueError):
            loaded.anonymize(10, strategy="zigzag")

    def test_sequential_strategy_also_audits_clean(
        self, loaded, medium_table
    ) -> None:
        release = loaded.anonymize(10, strategy="sequential")
        assert verify_release(release, medium_table, 10) == []

    def test_constraint_release(self, loaded, medium_table) -> None:
        constraint = DistinctLDiversity(2)
        release = loaded.anonymize(10, constraint=constraint)
        assert verify_release(release, medium_table, 10) == []
        assert constraint.check_table(release)


class TestUncompactedReleases:
    """The leaves' region boxes (``oracles.leaf_regions``), which tile the
    domain and box the uncompacted releases the golden digests pin."""

    def test_leaf_regions_tile_the_domain(self, loaded, medium_table) -> None:
        """Sibling regions are disjoint and cover the whole domain box:
        total discrete volume of the leaf regions equals the domain's."""
        regions = oracles.leaf_regions(loaded)
        domain = medium_table.domain_box()
        assert all(domain.contains_box(region) for region in regions)
        # Pairwise interiors are disjoint: shared volume must be zero.
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                overlap = a.intersection(b)
                assert overlap is None or overlap.area() == 0.0
        total_area = sum(region.area() for region in regions)
        assert total_area == pytest.approx(domain.area())

    def test_every_record_in_its_leaf_region(self, loaded) -> None:
        regions = oracles.leaf_regions(loaded)
        leaves = loaded.tree.leaves()
        assert len(regions) == len(leaves)
        for region, leaf in zip(regions, leaves):
            assert all(region.contains_point(r.point) for r in leaf.records)
            assert leaf.mbr is not None and region.contains_box(leaf.mbr)


class TestIncremental:
    def test_insert_batch_then_release(self, medium_table, schema3) -> None:
        half = len(medium_table) // 2
        first = Table(schema3, medium_table.records[:half])
        anonymizer = RTreeAnonymizer(first, base_k=5)
        anonymizer.bulk_load(first)
        anonymizer.insert_batch(medium_table.records[half:])
        release = anonymizer.anonymize(10)
        assert verify_release(release, medium_table, 10) == []

    def test_single_inserts_and_deletes(self, schema3) -> None:
        records = random_records(300, seed=3)
        table = Table(schema3, records)
        anonymizer = RTreeAnonymizer(table, base_k=4)
        anonymizer.bulk_load(table)
        extra = Record(9_999, (50.0, 50.0, 50.0), ("flu",))
        anonymizer.insert(extra)
        assert len(anonymizer) == 301
        removed = anonymizer.delete(9_999, extra.point)
        assert removed.rid == 9_999
        anonymizer.tree.check_invariants()

    def test_release_after_deletions_audits_clean(self, schema3) -> None:
        records = random_records(400, seed=4)
        table = Table(schema3, records)
        anonymizer = RTreeAnonymizer(table, base_k=4)
        anonymizer.bulk_load(table)
        for record in records[:100]:
            anonymizer.delete(record.rid, record.point)
        survivors = Table(schema3, records[100:])
        release = anonymizer.anonymize(8)
        assert verify_release(release, survivors, 8) == []


class TestStorageIntegration:
    def test_pool_accounting_surfaces(self, medium_table) -> None:
        pagefile: PageFile[Record] = PageFile(page_bytes=512, record_bytes=12)
        pool: BufferPool[Record] = BufferPool(pagefile, 64 * 512)
        anonymizer = RTreeAnonymizer(medium_table, base_k=5, pool=pool)
        anonymizer.bulk_load(medium_table)
        stats = anonymizer.io_stats()
        assert stats is not None
        assert stats.total > 0

    def test_no_pool_reports_none(self, loaded) -> None:
        assert loaded.io_stats() is None


class TestIntrospection:
    def test_counts(self, loaded, medium_table) -> None:
        assert len(loaded) == len(medium_table)
        assert loaded.leaf_count() == len(loaded.tree.leaves())
        assert loaded.base_k == 5
        assert loaded.schema is medium_table.schema


class TestFileLoading:
    def test_bulk_load_file_streams(self, tmp_path, schema3) -> None:
        from repro.dataset.io import write_table
        from repro.dataset.table import Table

        table = Table(schema3, random_records(500, seed=21))
        path = tmp_path / "stage.rec"
        write_table(table, path)
        anonymizer = RTreeAnonymizer(table, base_k=5)
        consumed = anonymizer.bulk_load_file(str(path))
        assert consumed == 500
        assert len(anonymizer) == 500
        release = anonymizer.anonymize(10)
        # Payloads are not persisted in record files, so audit against the
        # staged (sensitive-free) view of the table.
        staged = Table(
            schema3, [Record(r.rid, r.point) for r in table]
        )
        assert verify_release(release, staged, 10) == []

    def test_bulk_load_file_dimension_mismatch(self, tmp_path, schema3) -> None:
        from repro.dataset.io import RecordFileWriter
        from repro.dataset.table import Table

        path = tmp_path / "wrong.rec"
        with RecordFileWriter(path, dimensions=2) as writer:
            writer.write_point((1, 2))
        table = Table(schema3, random_records(10, seed=22))
        anonymizer = RTreeAnonymizer(table, base_k=2)
        with pytest.raises(ValueError):
            anonymizer.bulk_load_file(str(path))

    def test_bulk_load_file_reports_consumed_not_header_count(
        self, tmp_path, schema3, monkeypatch
    ) -> None:
        """Regression: the return value is what the loader consumed.

        ``bulk_load_file`` used to return ``len(reader)`` — the header's
        claim — so a short read (e.g. a reader that tolerates truncation)
        was misreported.  Simulate a short read and check the honest count
        comes back.
        """
        import repro.dataset.io as io_module
        from repro.dataset.io import write_table
        from repro.dataset.table import Table

        table = Table(schema3, random_records(200, seed=23))
        path = tmp_path / "short.rec"
        write_table(table, path)

        real_iter = io_module.RecordFileReader.iter_records

        def short_iter(self, batch_size=8192, first_rid=0):  # noqa: ANN001
            for index, record in enumerate(
                real_iter(self, batch_size, first_rid=first_rid)
            ):
                if index >= 120:
                    return
                yield record

        monkeypatch.setattr(io_module.RecordFileReader, "iter_records", short_iter)
        anonymizer = RTreeAnonymizer(table, base_k=5)
        consumed = anonymizer.bulk_load_file(str(path))
        assert consumed == 120
        assert len(anonymizer) == 120


class TestReleaseReflectsPendingWork:
    def test_anonymize_drains_pending_loader_buffers(
        self, medium_table, schema3
    ) -> None:
        """Regression: undelivered buffered records must not be silently
        missing from a "k-anonymous" release."""
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        # Stream through the loader directly and "forget" to drain.
        anonymizer.loader.insert_batch(medium_table.records)
        assert (
            anonymizer.loader.buffered_records > 0
            or anonymizer.tree.in_bulk_mode
        )
        release = anonymizer.anonymize(10)
        assert release.record_count == len(medium_table)
        assert verify_release(release, medium_table, 10) == []
        assert anonymizer.loader.buffered_records == 0
        assert not anonymizer.tree.in_bulk_mode

    def test_anonymize_finishes_bulk_mode_without_buffers(
        self, medium_table
    ) -> None:
        """A tree left in bulk mode (over-full unsplit leaves) is finished
        before leaves are scanned, so occupancy bounds hold in the release."""
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.tree.begin_bulk()
        for record in medium_table.records:
            anonymizer.tree.insert(record)
        assert anonymizer.tree.in_bulk_mode
        release = anonymizer.anonymize(10)
        assert not anonymizer.tree.in_bulk_mode
        assert release.record_count == len(medium_table)
        assert verify_release(release, medium_table, 10) == []
