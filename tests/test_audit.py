"""Release audits: record schema, verdicts, and the audit on every release."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mondrian import mondrian_anonymize
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.obs import AUDIT_RECORD_KEYS, AUDIT_SCHEMA_VERSION, TRACE, audit_release
from tests import oracles
from tests.conftest import bulk_release, random_records


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


#: The keys of a version-2 audit record, pinned for trail consumers.
V2_KEYS = {
    "schema_version",
    "k_requested",
    "k_effective",
    "k_satisfied",
    "base_k",
    "record_count",
    "partition_count",
    "occupancy",
    "mbr_volume",
    "discernibility",
    "discernibility_per_record",
    "certainty",
    "certainty_per_record",
    "problems",
}


class TestAnonymizerWiring:
    def test_every_release_carries_its_own_audit(
        self, medium_table: Table
    ) -> None:
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        assert AUDIT_SCHEMA_VERSION == 2
        assert AUDIT_RECORD_KEYS == V2_KEYS
        for k in (5, 10, 25):
            for strategy in ("subtree", "sequential"):
                release = anonymizer.release(k, strategy=strategy)
                assert set(release.audit) == V2_KEYS
                assert release.audit == audit_release(
                    release.table, k, base_k=5
                )
                assert release.audit["k_requested"] == k
                assert release.k_satisfied
                # The full release-vs-original verification is one call away.
                full = audit_release(release.table, k, original=medium_table)
                assert full["k_satisfied"] is True
                assert full["problems"] == []

    def test_incremental_releases_carry_audit_records(self, schema3) -> None:
        records = random_records(1_200, seed=13)
        table = Table(schema3, records[:800])
        anonymizer = RTreeAnonymizer(table, base_k=5)
        anonymizer.bulk_load(table)
        before = anonymizer.release(10)
        anonymizer.insert_batch(records[800:])
        after = anonymizer.release(10)
        assert before.k_satisfied and after.k_satisfied
        assert before.audit["record_count"] == 800
        assert after.audit["record_count"] == 1_200

    def test_anonymize_audits_nothing(self, medium_table: Table) -> None:
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        TRACE.enable()
        try:
            anonymizer.anonymize(10)
            names = TRACE.event_names()
            assert "core.release" in names
            assert "obs.audit" not in names
            anonymizer.release(10)
            assert "obs.audit" in TRACE.event_names()
        finally:
            TRACE.disable()
            TRACE.reset()


def _sized_table(schema, sizes: list[int], seed: int) -> AnonymizedTable:
    """Partitions of the given sizes over random records, each boxed by
    its records' minimum bounding box."""
    records = random_records(sum(sizes), dimensions=schema.dimensions, seed=seed)
    partitions = []
    start = 0
    for size in sizes:
        group = tuple(records[start : start + size])
        partitions.append(
            Partition.trusted(group, Box.from_points(r.point for r in group))
        )
        start += size
    return AnonymizedTable(schema, partitions)


class TestAuditEqualsTheScalarLoops:
    """The numpy audit against ``tests.oracles.audit_release``, its
    plain-Python form, compared by ``repr`` so that a float's bits and
    every value's type count."""

    @staticmethod
    def _assert_same(release: AnonymizedTable, k: int, **options) -> None:
        assert repr(audit_release(release, k, **options)) == repr(
            oracles.audit_release(release, k, **options)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=60),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
    )
    def test_random_tables(self, sizes: list[int], seed: int, k: int) -> None:
        schema = Schema(
            tuple(Attribute.numeric(name, 0, 100) for name in "abc"),
            sensitive=("diagnosis",),
        )
        release = _sized_table(schema, sizes, seed)
        self._assert_same(release, k)
        self._assert_same(release, k, base_k=2)

    def test_sizes_at_exact_powers_of_two(self, schema3) -> None:
        release = _sized_table(schema3, [1, 2, 3, 4, 7, 8, 16, 31, 32, 64], 5)
        self._assert_same(release, 1)
        self._assert_same(release, 4)

    def test_one_partition_tables(self, schema3) -> None:
        for size in (1, 2, 5, 128):
            self._assert_same(_sized_table(schema3, [size], size), 1)
            self._assert_same(_sized_table(schema3, [size], size), 3)

    def test_zero_extent_attributes(self) -> None:
        schema = Schema(
            (
                Attribute.numeric("a", 0, 100),
                Attribute.numeric("flat", 7, 7),
                Attribute.numeric("b", 0, 100),
            ),
            sensitive=("diagnosis",),
        )
        records = [
            Record(r.rid, (r.point[0], 7.0, r.point[1]), r.sensitive)
            for r in random_records(90, dimensions=2, seed=11)
        ]
        table = Table(schema, records)
        anonymizer = RTreeAnonymizer(table, base_k=3)
        anonymizer.bulk_load(table)
        for k in (3, 10):
            self._assert_same(anonymizer.anonymize(k), k, original=table)

    def test_mondrian_releases(self, medium_table: Table) -> None:
        for k in (2, 5, 25):
            release = mondrian_anonymize(medium_table, k)
            self._assert_same(release, k)
            self._assert_same(release, k, base_k=5, original=medium_table)
            self._assert_same(release, 2 * k)

    def test_subtree_and_sequential_releases(self, medium_table: Table) -> None:
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        for k in (5, 16, 40):
            for strategy in ("subtree", "sequential"):
                table = anonymizer.anonymize(k, strategy=strategy)
                self._assert_same(table, k, base_k=5, original=medium_table)
