"""Release audits: record schema, verdicts, strict mode, anonymizer wiring."""

from __future__ import annotations

import json

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.obs import (
    AUDIT_RECORD_KEYS,
    AUDIT_SCHEMA_VERSION,
    AUDITOR,
    AuditFailure,
    ReleaseAuditor,
    audit_release,
)
from tests.conftest import bulk_release, random_records


@pytest.fixture(autouse=True)
def _clean_global_auditor():
    """Keep the process-wide auditor off between tests."""
    yield
    AUDITOR.disable()
    AUDITOR.reset()


def _release_with_undersized_partition(schema) -> AnonymizedTable:
    """Two partitions, the smaller holding just 2 records (k=2 effective)."""
    records = random_records(10, seed=11)
    box = Box((0.0,) * 3, (100.0,) * 3)
    return AnonymizedTable(
        schema,
        [
            Partition.trusted(tuple(records[:8]), box),
            Partition.trusted(tuple(records[8:]), box),
        ],
    )


class TestAuditRecord:
    def test_record_schema_is_stable(self, medium_table: Table) -> None:
        release = bulk_release(medium_table, 10)
        record = audit_release(release, k=10, base_k=5)
        assert set(record) == AUDIT_RECORD_KEYS
        assert record["schema_version"] == AUDIT_SCHEMA_VERSION
        # The record must be trail-writable as-is.
        json.dumps(record)

    def test_real_release_satisfies_k(self, medium_table: Table) -> None:
        release = bulk_release(medium_table, 10)
        record = audit_release(release, k=10, base_k=5)
        assert record["k_satisfied"] is True
        assert record["k_effective"] >= 10
        assert record["problems"] == []
        assert record["partition_count"] == len(release.partitions)
        assert record["record_count"] == release.record_count
        assert record["occupancy"]["min"] >= 10
        assert 0.0 <= record["mbr_volume"]["max"] <= 1.0
        assert record["discernibility"] > 0
        # No original table supplied: certainty is unknown, not zero.
        assert record["certainty"] is None
        assert record["certainty_per_record"] is None

    def test_original_table_enables_full_verification(
        self, medium_table: Table
    ) -> None:
        release = bulk_release(medium_table, 10)
        record = audit_release(release, k=10, original=medium_table)
        assert record["k_satisfied"] is True
        assert record["certainty"] is not None
        assert record["certainty_per_record"] == pytest.approx(
            record["certainty"] / release.record_count
        )

    def test_distribution_buckets_ascend_by_exponent(self) -> None:
        from repro.obs.audit import _distribution

        buckets = _distribution([8, 2, 100, 3])["buckets"]
        assert list(buckets.items()) == [
            ("<=2^2", 2),
            ("<=2^4", 1),
            ("<=2^7", 1),
        ]

    def test_occupancy_buckets_ascend_in_a_real_audit(self, schema3) -> None:
        records = random_records(113, seed=3)
        box = Box((0.0,) * 3, (100.0,) * 3)
        bounds = [0, 8, 10, 110, 113]
        release = AnonymizedTable(
            schema3,
            [
                Partition.trusted(tuple(records[low:high]), box)
                for low, high in zip(bounds, bounds[1:])
            ],
        )
        buckets = audit_release(release, k=2)["occupancy"]["buckets"]
        assert list(buckets) == ["<=2^2", "<=2^4", "<=2^7"]

    def test_undersized_partition_fails_the_audit(self, schema3) -> None:
        release = _release_with_undersized_partition(schema3)
        record = audit_release(release, k=5)
        assert record["k_satisfied"] is False
        assert record["k_effective"] == 2
        assert record["problems"]


class TestReleaseAuditor:
    def test_collects_records_in_publish_order(self, schema3) -> None:
        release = _release_with_undersized_partition(schema3)
        auditor = ReleaseAuditor()
        auditor.enable()
        auditor.on_release(release, k=2)
        auditor.on_release(release, k=2)
        assert [record["sequence"] for record in auditor.records] == [0, 1]
        assert auditor.latest["sequence"] == 1
        assert auditor.failed_records() == []

    def test_strict_mode_raises_but_keeps_the_record(self, schema3) -> None:
        release = _release_with_undersized_partition(schema3)
        auditor = ReleaseAuditor()
        auditor.enable(strict=True)
        with pytest.raises(AuditFailure) as excinfo:
            auditor.on_release(release, k=5)
        assert excinfo.value.record["k_satisfied"] is False
        # The trail still shows what was rejected.
        assert len(auditor.records) == 1
        assert auditor.failed_records() == auditor.records

    def test_non_strict_mode_records_failures_silently(self, schema3) -> None:
        release = _release_with_undersized_partition(schema3)
        auditor = ReleaseAuditor()
        auditor.enable()
        record = auditor.on_release(release, k=5)
        assert record["k_satisfied"] is False
        assert len(auditor.failed_records()) == 1

    def test_reference_table_applies_to_every_audit(
        self, medium_table: Table
    ) -> None:
        release = bulk_release(medium_table, 10)
        auditor = ReleaseAuditor()
        auditor.enable(reference=medium_table)
        record = auditor.on_release(release, k=10)
        assert record["certainty"] is not None


class TestAnonymizerWiring:
    def test_every_release_is_audited_when_enabled(
        self, medium_table: Table
    ) -> None:
        AUDITOR.enable(reference=medium_table)
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        for k in (5, 10, 25):
            anonymizer.anonymize(k)
        assert len(AUDITOR.records) == 3
        for record, k in zip(AUDITOR.records, (5, 10, 25)):
            assert record["k_requested"] == k
            assert record["base_k"] == 5
            assert record["k_satisfied"] is True
            assert record["problems"] == []

    def test_incremental_releases_carry_audit_records(self, schema3) -> None:
        records = random_records(1_200, seed=13)
        table = Table(schema3, records[:800])
        AUDITOR.enable(strict=True)
        anonymizer = RTreeAnonymizer(table, base_k=5)
        anonymizer.bulk_load(table)
        anonymizer.anonymize(10)
        anonymizer.insert_batch(records[800:])
        anonymizer.anonymize(10)
        assert len(AUDITOR.records) == 2
        assert all(record["k_satisfied"] for record in AUDITOR.records)
        assert AUDITOR.records[1]["record_count"] == 1_200

    def test_disabled_auditor_collects_nothing(self, medium_table: Table) -> None:
        assert not AUDITOR.enabled
        bulk_release(medium_table, 10)
        assert AUDITOR.records == []
