"""Schemas, records, tables and binary record I/O."""

from __future__ import annotations

import pytest

from repro.dataset.io import (
    _HEADER,
    RecordFileReader,
    RecordFileWriter,
    read_table,
    write_table,
)
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.dataset.table import Table
from tests.conftest import random_records


class TestSchema:
    def test_numeric_attribute(self) -> None:
        attribute = Attribute.numeric("age", 0, 120)
        assert attribute.kind is AttributeKind.NUMERIC
        assert attribute.domain_extent == 120

    def test_categorical_from_values(self) -> None:
        attribute = Attribute.categorical("sex", ["F", "M"])
        assert attribute.kind is AttributeKind.CATEGORICAL
        assert attribute.domain_low == 0
        assert attribute.domain_high == 1
        assert attribute.hierarchy is not None

    def test_categorical_needs_values_or_hierarchy(self) -> None:
        with pytest.raises(ValueError):
            Attribute.categorical("sex")

    def test_inverted_domain_rejected(self) -> None:
        with pytest.raises(ValueError):
            Attribute.numeric("age", 10, 0)

    def test_schema_lookup(self, schema3: Schema) -> None:
        assert schema3.dimensions == 3
        assert schema3.index_of("b") == 1
        assert schema3.attribute("c").name == "c"
        with pytest.raises(KeyError):
            schema3.index_of("missing")

    def test_duplicate_names_rejected(self) -> None:
        with pytest.raises(ValueError):
            Schema((Attribute.numeric("a", 0, 1), Attribute.numeric("a", 0, 1)))

    def test_empty_schema_rejected(self) -> None:
        with pytest.raises(ValueError):
            Schema(())

    def test_domain_vectors(self, schema3: Schema) -> None:
        assert schema3.domain_lows() == (0.0, 0.0, 0.0)
        assert schema3.domain_highs() == (100.0, 100.0, 100.0)


class TestTable:
    def test_append_validates_dimensions(self, schema3: Schema) -> None:
        table = Table(schema3)
        with pytest.raises(ValueError):
            table.append(Record(0, (1.0, 2.0)))

    def test_from_points_assigns_rids(self, schema3: Schema) -> None:
        table = Table.from_points(schema3, [(1, 2, 3), (4, 5, 6)])
        assert [record.rid for record in table] == [0, 1]

    def test_from_points_with_sensitive(self, schema3: Schema) -> None:
        table = Table.from_points(schema3, [(1, 2, 3)], sensitive=[("flu",)])
        assert table[0].sensitive == ("flu",)

    def test_extent_and_ranges(self, schema3: Schema) -> None:
        table = Table.from_points(schema3, [(0, 5, 9), (4, 5, 1)])
        assert table.extent().lows == (0.0, 5.0, 1.0)
        assert table.attribute_ranges() == (4.0, 0.0, 8.0)

    def test_extent_of_empty_rejected(self, schema3: Schema) -> None:
        with pytest.raises(ValueError):
            Table(schema3).extent()

    def test_sample_is_reproducible(self, small_table: Table) -> None:
        a = small_table.sample(50, seed=3)
        b = small_table.sample(50, seed=3)
        assert [r.rid for r in a] == [r.rid for r in b]
        assert len({r.rid for r in a}) == 50

    def test_sample_too_large_rejected(self, small_table: Table) -> None:
        with pytest.raises(ValueError):
            small_table.sample(10_000)

    def test_batches_cover_everything_in_order(self, small_table: Table) -> None:
        batches = list(small_table.batches(64))
        assert [len(batch) for batch in batches] == [64, 64, 64, 8]
        flattened = [record.rid for batch in batches for record in batch]
        assert flattened == [record.rid for record in small_table]

    def test_batches_rejects_nonpositive(self, small_table: Table) -> None:
        with pytest.raises(ValueError):
            list(small_table.batches(0))

    def test_head(self, small_table: Table) -> None:
        assert [r.rid for r in small_table.head(3)] == [0, 1, 2]


class TestRecordIO:
    def test_round_trip(self, tmp_path, schema3: Schema) -> None:
        table = Table(schema3, random_records(500, seed=9))
        path = tmp_path / "data.rec"
        assert write_table(table, path) == 500
        loaded = read_table(path, schema3)
        assert len(loaded) == 500
        assert loaded.points() == table.points()

    def test_reader_metadata(self, tmp_path) -> None:
        path = tmp_path / "data.rec"
        with RecordFileWriter(path, dimensions=9) as writer:
            assert writer.record_bytes == 36  # the paper's synthetic width
            writer.write_point((1,) * 9)
        reader = RecordFileReader(path)
        assert reader.dimensions == 9
        assert len(reader) == 1

    def test_landsend_width_is_32_bytes(self, tmp_path) -> None:
        with RecordFileWriter(tmp_path / "x.rec", dimensions=8) as writer:
            assert writer.record_bytes == 32  # the paper's Lands End width

    def test_batched_iteration_matches(self, tmp_path, schema3: Schema) -> None:
        table = Table(schema3, random_records(1000, seed=4))
        path = tmp_path / "data.rec"
        write_table(table, path)
        reader = RecordFileReader(path)
        small_batches = list(reader.iter_points(batch_size=7))
        assert small_batches == table.points()

    def test_bad_magic_rejected(self, tmp_path) -> None:
        path = tmp_path / "junk.rec"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            RecordFileReader(path)

    def test_truncated_header_rejected(self, tmp_path) -> None:
        path = tmp_path / "tiny.rec"
        path.write_bytes(b"RP")
        with pytest.raises(ValueError):
            RecordFileReader(path)

    def test_zero_dimension_header_rejected(self, tmp_path) -> None:
        """Regression: a header claiming 0 dimensions divided by a 0-byte
        record width and raised ``ZeroDivisionError``."""
        path = tmp_path / "flat.rec"
        path.write_bytes(_HEADER.pack(b"RPR1", 0, 5))
        with pytest.raises(ValueError, match="0 dimensions"):
            RecordFileReader(path)

    def test_read_table_synthesizes_schema(self, tmp_path, schema3: Schema) -> None:
        table = Table(schema3, random_records(50, seed=5))
        path = tmp_path / "data.rec"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.schema.dimensions == 3
        assert len(loaded) == 50

    def test_iter_records_assigns_rids(self, tmp_path, schema3: Schema) -> None:
        table = Table(schema3, random_records(10, seed=6))
        path = tmp_path / "data.rec"
        write_table(table, path)
        records = list(RecordFileReader(path).iter_records(first_rid=100))
        assert [record.rid for record in records] == list(range(100, 110))

    def test_truncated_body_rejected_at_open(self, tmp_path, schema3: Schema) -> None:
        """Header claims more records than the bytes on disk can hold."""
        table = Table(schema3, random_records(100, seed=7))
        path = tmp_path / "data.rec"
        write_table(table, path)
        data = path.read_bytes()
        # Chop the last 1.5 records off the body; the header still says 100.
        path.write_bytes(data[: len(data) - 18])
        with pytest.raises(ValueError, match="header claims 100 records"):
            RecordFileReader(path)

    def test_truncation_error_names_offending_offset(
        self, tmp_path, schema3: Schema
    ) -> None:
        table = Table(schema3, random_records(10, seed=7))
        path = tmp_path / "data.rec"
        write_table(table, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 12])  # exactly one record short
        with pytest.raises(ValueError) as excinfo:
            RecordFileReader(path)
        # 12-byte header + 9 whole 12-byte records.
        assert "byte offset 120" in str(excinfo.value)

    def test_shrink_during_iteration_rejected(
        self, tmp_path, schema3: Schema
    ) -> None:
        """A file truncated after open fails loudly, never short-reads."""
        table = Table(schema3, random_records(100, seed=8))
        path = tmp_path / "data.rec"
        write_table(table, path)
        reader = RecordFileReader(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 240])  # drop the last 20 records
        stream = reader.iter_points(batch_size=16)
        consumed = [next(stream) for _ in range(64)]
        assert len(consumed) == 64
        with pytest.raises(ValueError, match="short read at byte offset"):
            list(stream)

    def test_valid_slices_still_stream(self, tmp_path, schema3: Schema) -> None:
        table = Table(schema3, random_records(200, seed=9))
        path = tmp_path / "data.rec"
        write_table(table, path)
        reader = RecordFileReader(path)
        middle = list(reader.iter_points(batch_size=17, start=50, count=100))
        assert middle == table.points()[50:150]
        with pytest.raises(ValueError, match="outside the file"):
            list(reader.iter_points(start=150, count=100))
