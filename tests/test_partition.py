"""Partitions and anonymized tables."""

from __future__ import annotations

import copy
import pickle
import struct

import pytest

from repro.core.partition import AnonymizedTable, Partition, release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.geometry.box import Box
from repro.obs.audit import audit_release


def make_partition(points: list[tuple[float, float]], box: Box | None = None) -> Partition:
    records = tuple(Record(i, p) for i, p in enumerate(points))
    if box is None:
        box = Box.from_points(points)
    return Partition(records, box)


@pytest.fixture
def schema2() -> Schema:
    return Schema((Attribute.numeric("x", 0, 10), Attribute.numeric("y", 0, 10)))


class TestPartition:
    def test_box_must_contain_records(self) -> None:
        records = (Record(0, (5.0, 5.0)),)
        with pytest.raises(ValueError):
            Partition(records, Box((0.0, 0.0), (1.0, 1.0)))

    def test_empty_rejected(self) -> None:
        with pytest.raises(ValueError):
            Partition((), Box((0.0,), (1.0,)))

    def test_mbr_shrink_wraps(self) -> None:
        partition = make_partition(
            [(1.0, 8.0), (3.0, 2.0)], Box((0.0, 0.0), (10.0, 10.0))
        )
        assert partition.mbr() == Box((1.0, 2.0), (3.0, 8.0))

    def test_with_box(self) -> None:
        partition = make_partition([(1.0, 1.0)], Box((0.0, 0.0), (5.0, 5.0)))
        tightened = partition.with_box(partition.mbr())
        assert tightened.records == partition.records
        assert tightened.box == Box((1.0, 1.0), (1.0, 1.0))

    def test_rids(self) -> None:
        assert make_partition([(1.0, 1.0), (2.0, 2.0)]).rids() == frozenset({0, 1})

    def test_len(self) -> None:
        assert len(make_partition([(1.0, 1.0), (2.0, 2.0)])) == 2


class TestPartitionMemos:
    """A partition keeps its box row, digest fragment and volume once read;
    the kept values are not fields and never change what it equals."""

    def filled(self, schema2: Schema) -> Partition:
        partition = make_partition([(1.0, 8.0), (3.0, 2.0)])
        partition.box_row, partition.fragment, partition.volume(schema2)
        return partition

    def test_each_schema_reports_its_own_volume(self, schema2: Schema) -> None:
        wide = Schema((Attribute.numeric("x", 0, 20), Attribute.numeric("y", 0, 10)))
        partition = make_partition([(1.0, 8.0), (3.0, 2.0)])  # box 2 x 6
        narrow_table = AnonymizedTable(schema2, [partition])
        wide_table = AnonymizedTable(wide, [partition])
        for _ in range(2):  # each schema measured after the other's memo
            narrow = audit_release(narrow_table, 1)["mbr_volume"]
            assert narrow["min"] == narrow["max"] == (2 / 10) * (6 / 10)
            assert partition.volume(schema2) == (2 / 10) * (6 / 10)
            wide_audit = audit_release(wide_table, 1)["mbr_volume"]
            assert wide_audit["min"] == wide_audit["max"] == (2 / 20) * (6 / 10)
            assert partition.volume(wide) == (2 / 20) * (6 / 10)

    def test_filled_memos_keep_equality_hash_and_repr(self, schema2: Schema) -> None:
        partition = self.filled(schema2)
        fresh = make_partition([(1.0, 8.0), (3.0, 2.0)])
        assert partition == fresh
        assert hash(partition) == hash(fresh)
        assert repr(partition) == repr(fresh)
        assert len({partition, fresh}) == 1

    def test_filled_memos_equal_a_fresh_partitions(self, schema2: Schema) -> None:
        partition = self.filled(schema2)
        fresh = make_partition([(1.0, 8.0), (3.0, 2.0)])
        assert partition.fragment == fresh.fragment == b"((1.0, 2.0), (3.0, 8.0))[0, 1]"
        assert partition.box_row == fresh.box_row == struct.pack("4d", 1, 2, 3, 8)
        assert partition.fragment is partition.fragment
        table = AnonymizedTable(schema2, [partition])
        assert release_digest(table) == release_digest(
            AnonymizedTable(schema2, [fresh])
        )

    @pytest.mark.parametrize(
        "clone",
        [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_round_trip(self, schema2: Schema, clone) -> None:  # noqa: ANN001
        partition = self.filled(schema2)
        twin = clone(partition)
        assert twin == partition
        assert hash(twin) == hash(partition)
        assert (twin._row, twin._fragment, twin._volume) == (None, None, None)
        assert twin.fragment == partition.fragment
        assert twin.box_row == partition.box_row
        assert twin.volume(schema2) == partition.volume(schema2)
        table = AnonymizedTable(schema2, [partition])
        assert release_digest(copy.deepcopy(table)) == release_digest(table)


class TestAnonymizedTable:
    def make_table(self, schema2: Schema) -> AnonymizedTable:
        a = Partition(
            (Record(0, (1.0, 1.0), ("flu",)), Record(1, (2.0, 2.0), ("cold",))),
            Box((1.0, 1.0), (2.0, 2.0)),
        )
        b = Partition(
            (Record(2, (8.0, 8.0), ("flu",)), Record(3, (9.0, 9.0), ("acl",)),
             Record(4, (8.5, 8.5), ("flu",))),
            Box((8.0, 8.0), (9.0, 9.0)),
        )
        return AnonymizedTable(schema2, [a, b])

    def test_counts(self, schema2: Schema) -> None:
        table = self.make_table(schema2)
        assert len(table) == 2  # partitions
        assert table.record_count == 5
        assert table.k_effective == 2

    def test_empty_rejected(self, schema2: Schema) -> None:
        with pytest.raises(ValueError):
            AnonymizedTable(schema2, [])

    def test_dimension_mismatch_rejected(self, schema2: Schema) -> None:
        bad = Partition((Record(0, (1.0,)),), Box((0.0,), (2.0,)))
        with pytest.raises(ValueError):
            AnonymizedTable(schema2, [bad])

    def test_partition_of(self, schema2: Schema) -> None:
        table = self.make_table(schema2)
        assert len(table.partition_of(3)) == 3
        with pytest.raises(KeyError):
            table.partition_of(99)

    def test_rid_to_partition(self, schema2: Schema) -> None:
        mapping = self.make_table(schema2).rid_to_partition()
        assert mapping == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}

    def test_rows_release_format(self, schema2: Schema) -> None:
        rows = list(self.make_table(schema2).rows())
        assert len(rows) == 5
        box, sensitive = rows[0]
        assert box == Box((1.0, 1.0), (2.0, 2.0))
        assert sensitive == ("flu",)
        # All rows of one partition publish the same box.
        assert rows[0][0] == rows[1][0]

    def test_summary_mentions_k(self, schema2: Schema) -> None:
        summary = self.make_table(schema2).summary()
        assert "k-effective 2" in summary
        assert "2 partitions" in summary
