"""CSV publishing of anonymized releases and recipient-side parsing."""

from __future__ import annotations

import pytest

from repro.dataset.census import make_census_table
from repro.dataset.export import (
    PARTITION_COLUMN,
    read_release_csv,
    release_rows,
    write_release_csv,
)
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.query.ranges import RangeQuery, count_anonymized
from repro.query.workload import random_range_workload
from tests.conftest import bulk_release, random_records


@pytest.fixture
def release(schema3):
    table = Table(schema3, random_records(300, seed=11))
    return bulk_release(table, 10), table


class TestExport:
    def test_header_and_row_count(self, release, tmp_path) -> None:
        anonymized, table = release
        path = tmp_path / "release.csv"
        written = write_release_csv(anonymized, path)
        assert written == len(table)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith(f"{PARTITION_COLUMN},a,b,c,diagnosis")
        assert len(lines) == len(table) + 1

    def test_partition_members_share_generalization(self, release) -> None:
        anonymized, _table = release
        rows = list(release_rows(anonymized))[1:]
        by_partition: dict[str, set[tuple[str, ...]]] = {}
        for row in rows:
            by_partition.setdefault(row[0], set()).add(tuple(row[1:4]))
        # Indistinguishability in the published artifact itself.
        assert all(len(values) == 1 for values in by_partition.values())

    def test_sensitive_values_pass_through(self, release) -> None:
        anonymized, table = release
        rows = list(release_rows(anonymized))[1:]
        published = sorted(row[4] for row in rows)
        original = sorted(str(r.sensitive[0]) for r in table)
        assert published == original

    def test_round_trip_preserves_published_info(self, release, tmp_path) -> None:
        anonymized, table = release
        path = tmp_path / "release.csv"
        write_release_csv(anonymized, path)
        loaded = read_release_csv(path, table.schema)
        assert loaded.record_count == len(table)
        assert loaded.k_effective == anonymized.k_effective
        assert len(loaded.boxes) == len(anonymized.partitions)

    def test_recipient_count_queries_match(self, release, tmp_path) -> None:
        """A recipient's COUNT over the CSV equals ours over the release."""
        anonymized, table = release
        path = tmp_path / "release.csv"
        write_release_csv(anonymized, path)
        loaded = read_release_csv(path, table.schema)
        for query in random_range_workload(table, 30, seed=12):
            assert loaded.count_query(query.box) == count_anonymized(
                query, anonymized
            )

    def test_wrong_schema_rejected(self, release, tmp_path, schema3) -> None:
        from repro.dataset.schema import Attribute, Schema

        anonymized, _table = release
        path = tmp_path / "release.csv"
        write_release_csv(anonymized, path)
        other = Schema((Attribute.numeric("x", 0, 1),))
        with pytest.raises(ValueError):
            read_release_csv(path, other)

    def test_census_hierarchy_labels_round_trip(self, tmp_path) -> None:
        """Hierarchy-labelled categorical columns decode back to the code
        intervals they cover."""
        table = make_census_table(800, seed=9)
        anonymized = bulk_release(table, 20)
        path = tmp_path / "census.csv"
        write_release_csv(anonymized, path)
        loaded = read_release_csv(path, table.schema)
        assert loaded.record_count == len(table)
        # Published boxes must contain the partitions they encode (the
        # label's code interval can only widen a degenerate code box).
        for published, partition in zip(loaded.boxes, anonymized.partitions):
            assert published.contains_box(partition.box) or published == partition.box
