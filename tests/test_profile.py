"""Information-loss profiles and gap statistics."""

from __future__ import annotations

import pytest

from repro.core.compaction import compact_table
from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.metrics.certainty import certainty_penalty
from repro.metrics.profile import gap_statistics, information_profile
from tests.conftest import bulk_release, random_records


@pytest.fixture
def schema2() -> Schema:
    return Schema((Attribute.numeric("x", 0, 100), Attribute.numeric("y", 0, 100)))


def release_from_boxes(
    schema: Schema, groups: list[tuple[list[tuple[float, float]], Box]]
) -> tuple[AnonymizedTable, Table]:
    rid = 0
    partitions = []
    original = Table(schema)
    for points, box in groups:
        records = []
        for point in points:
            record = Record(rid, point)
            original.append(record)
            records.append(record)
            rid += 1
        partitions.append(Partition(tuple(records), box))
    return AnonymizedTable(schema, partitions), original


class TestInformationProfile:
    def test_per_attribute_breakdown(self, schema2) -> None:
        # x generalized hard (extent 50 of range 50), y exact.
        release, original = release_from_boxes(
            schema2,
            [
                ([(0.0, 10.0), (50.0, 10.0)], Box((0.0, 10.0), (50.0, 10.0))),
            ],
        )
        profile = information_profile(release, original)
        x_loss, y_loss = profile.attributes
        assert x_loss.name == "x" and x_loss.mean_ncp == pytest.approx(1.0)
        assert y_loss.mean_ncp == 0.0
        assert y_loss.exact_fraction == 1.0
        assert profile.dominant_attribute() == "x"

    def test_total_matches_certainty_per_record(self, schema3) -> None:
        table = Table(schema3, random_records(400, seed=1))
        release = bulk_release(table, 10)
        profile = information_profile(release, table)
        expected = certainty_penalty(release, table) / len(table)
        assert profile.total_ncp_per_record == pytest.approx(expected)

    def test_partition_size_histogram(self, schema3) -> None:
        table = Table(schema3, random_records(400, seed=2))
        release = bulk_release(table, 10)
        profile = information_profile(release, table)
        assert sum(size * count for size, count in profile.partition_sizes.items()) == 400
        assert min(profile.partition_sizes) >= 10


class TestGapStatistics:
    def test_full_coverage_has_no_gaps(self, schema2) -> None:
        # One partition covering the whole domain: zero disclosed gaps.
        release, original = release_from_boxes(
            schema2,
            [([(0.0, 0.0), (100.0, 100.0)], Box((0.0, 0.0), (100.0, 100.0)))],
        )
        stats = gap_statistics(release, original, samples=2_000)
        assert stats.covered_volume_fraction == pytest.approx(1.0)
        assert not stats.discloses_gaps

    def test_tight_boxes_disclose_gaps(self, schema2) -> None:
        # Two tiny clusters in a big domain: nearly everything is gap.
        release, original = release_from_boxes(
            schema2,
            [
                ([(0.0, 0.0), (5.0, 5.0)], Box((0.0, 0.0), (5.0, 5.0))),
                ([(95.0, 95.0), (100.0, 100.0)], Box((95.0, 95.0), (100.0, 100.0))),
            ],
        )
        stats = gap_statistics(release, original, samples=4_000)
        assert stats.discloses_gaps
        assert stats.gap_volume_fraction > 0.95
        # Per-attribute coverage: each axis covered 10 of 100.
        assert stats.per_attribute_coverage[0] == pytest.approx(0.1)

    def test_compaction_increases_gap_disclosure(self, schema3) -> None:
        """§4 quantified: compacting a Mondrian release strictly grows the
        disclosed-gap volume (uncompacted regions tile the domain)."""
        from repro.baselines.mondrian import mondrian_anonymize
        from repro.dataset.landsend import make_landsend_table
        from repro.dataset.schema import Attribute, Schema

        full = make_landsend_table(1_000, seed=4)
        schema = Schema(
            (
                Attribute.numeric("zipcode", 501, 99_950),
                Attribute.numeric("price", 1, 500),
            )
        )
        table = Table.from_points(
            schema, [(r.point[0], r.point[4]) for r in full]
        )
        release = mondrian_anonymize(table, 10)
        uncompacted = gap_statistics(release, table, samples=4_000)
        compacted = gap_statistics(compact_table(release), table, samples=4_000)
        assert uncompacted.gap_volume_fraction == pytest.approx(0.0, abs=1e-9)
        assert compacted.gap_volume_fraction > uncompacted.gap_volume_fraction
