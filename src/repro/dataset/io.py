"""Fixed-width binary record files.

The paper's out-of-core experiments stream 32-byte (Lands End) and 36-byte
(synthetic) records from disk.  This module provides the matching storage
format: each record is ``dimensions`` little-endian ``int32`` quasi-identifier
values (sensitive payloads are not persisted — they play no role in the
index-construction experiments), preceded by a small self-describing header.

Readers iterate in configurable batches so the buffer-tree loader can consume
a file much larger than the memory budget while the storage layer meters its
own page traffic separately.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.kernels.codec import RECORD_DTYPE, decode_points, encode_points
from repro.obs import OBS

_MAGIC = b"RPR1"
_HEADER = struct.Struct("<4sII")  # magic, dimensions, record count
#: Records per page: what a :class:`RecordFileReader` decodes at once by
#: default, and what a sharded load's workers decode at a time.
PAGE_RECORDS = 8_192
#: Records per page that :meth:`RecordFileWriter.write_all` encodes at once.
_WRITE_PAGE_RECORDS = PAGE_RECORDS


class RecordFileWriter:
    """Stream integer-coded records into a fixed-width binary file."""

    def __init__(self, path: str | Path, dimensions: int) -> None:
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self._path = Path(path)
        self._dimensions = dimensions
        self._count = 0
        self._record_struct = struct.Struct(f"<{dimensions}i")
        self._handle: BinaryIO = open(self._path, "wb")
        self._handle.write(_HEADER.pack(_MAGIC, dimensions, 0))

    @property
    def record_bytes(self) -> int:
        """Bytes per record — 32 for 8 attributes, 36 for 9, as in the paper."""
        return self._record_struct.size

    def write_point(self, point: Sequence[float]) -> None:
        """Append one record's quasi-identifier point."""
        self._handle.write(
            self._record_struct.pack(*(int(round(value)) for value in point))
        )
        self._count += 1

    def write_all(self, points: Iterable[Sequence[float]]) -> int:
        """Append many records, a page at a time through :meth:`write_batch`;
        returns how many were written."""
        written = 0
        page: list[Sequence[float]] = []
        for point in points:
            page.append(point)
            if len(page) == _WRITE_PAGE_RECORDS:
                written += self.write_batch(page)
                page = []
        if page:
            written += self.write_batch(page)
        return written

    def write_batch(self, points) -> int:  # noqa: ANN001 - ndarray or rows
        """Append an ``(N, dims)`` page in one buffer write.

        Byte-identical to a :meth:`write_point` loop (``np.rint`` rounds
        half-to-even exactly like ``round``), one ``tobytes`` per page
        instead of one ``struct.pack`` per record.  Returns how many
        records were written.
        """
        rows = np.ascontiguousarray(points, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._dimensions:
            raise ValueError(
                f"batch of shape {rows.shape} does not match the file's "
                f"{self._dimensions}-dimensional records"
            )
        encoded = encode_points(rows)
        if encoded:
            self._handle.write(encoded)
        self._count += rows.shape[0]
        return rows.shape[0]

    def close(self) -> None:
        """Backpatch the record count and close the file."""
        if self._handle.closed:
            return
        self._handle.seek(0)
        self._handle.write(_HEADER.pack(_MAGIC, self._dimensions, self._count))
        self._handle.close()

    def __enter__(self) -> "RecordFileWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordFileReader:
    """Iterate records out of a fixed-width binary file in batches."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        with open(self._path, "rb") as handle:
            header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{self._path}: truncated header")
        magic, dimensions, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{self._path}: not a repro record file")
        if dimensions == 0:
            raise ValueError(f"{self._path}: header claims 0 dimensions")
        self._dimensions = dimensions
        self._count = count
        self._record_bytes = dimensions * RECORD_DTYPE.itemsize
        # The header's record count is a claim, not a fact: a crashed writer
        # (count backpatched only on close) or an externally truncated file
        # can disagree with the bytes actually present.  Validate up front so
        # slice readers never silently short-read past physical EOF.
        file_bytes = self._path.stat().st_size
        available = (file_bytes - _HEADER.size) // self._record_bytes
        if available < count:
            raise ValueError(
                f"{self._path}: header claims {count} records but the file's "
                f"{file_bytes} bytes hold only {available} whole records "
                f"(truncated at byte offset "
                f"{_HEADER.size + available * self._record_bytes})"
            )

    @property
    def dimensions(self) -> int:
        return self._dimensions

    def __len__(self) -> int:
        return self._count

    @property
    def record_bytes(self) -> int:
        return self._record_bytes

    def iter_point_batches(
        self,
        batch_size: int = PAGE_RECORDS,
        start: int = 0,
        count: int | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(position, (n, dims) float64 array)`` pages.

        The reader's one page loop: each page is read with one buffered
        ``read`` and decoded with one ``frombuffer`` (int32 → float64 is
        exact).  ``position`` is the file-record index of the page's first
        row, so callers assign file-position rids.  ``start``/``count``
        select a contiguous slice of the file's records (record indices,
        not bytes) — the sharded bulk-anonymization workers use these
        offsets to stream disjoint slices of one file without any
        coordination beyond the slice bounds.
        """
        if start < 0 or start > self._count:
            raise ValueError(
                f"start {start} outside the file's {self._count} records"
            )
        remaining = self._count - start if count is None else count
        if remaining < 0 or start + remaining > self._count:
            raise ValueError(
                f"slice [{start}, {start + remaining}) outside the file's "
                f"{self._count} records"
            )
        record_bytes = self._record_bytes
        position = start
        with open(self._path, "rb") as handle:
            handle.seek(_HEADER.size + start * record_bytes)
            reader = io.BufferedReader(handle, buffer_size=batch_size * record_bytes)
            while remaining > 0:
                want = min(remaining, batch_size)
                chunk = reader.read(want * record_bytes)
                whole = len(chunk) // record_bytes
                if len(chunk) % record_bytes or whole < want:
                    # The file shrank underneath us (or the init-time check
                    # was bypassed by concurrent truncation): fail with the
                    # exact offset rather than yielding a silently short or
                    # garbled stream.
                    raise ValueError(
                        f"{self._path}: short read at byte offset "
                        f"{_HEADER.size + (position + whole) * record_bytes} "
                        f"(record {position + whole}): wanted {want} records, "
                        f"file ended after {whole}"
                    )
                yield position, decode_points(chunk, self._dimensions)
                remaining -= want
                position += want

    def iter_points(
        self,
        batch_size: int = PAGE_RECORDS,
        start: int = 0,
        count: int | None = None,
    ) -> Iterator[tuple[float, ...]]:
        """Yield quasi-identifier points one at a time, read in pages."""
        for _position, points in self.iter_point_batches(batch_size, start, count):
            yield from map(tuple, points.tolist())

    def iter_records(
        self,
        batch_size: int = PAGE_RECORDS,
        first_rid: int = 0,
        start: int = 0,
        count: int | None = None,
    ) -> Iterator[Record]:
        """Yield :class:`Record` objects with sequential rids.

        Rids are assigned by *file position* (``first_rid + index``), so a
        record carries the same rid whether the file is read whole or in
        slices — what makes slice-parallel loads reproduce serial output.
        """
        for position, points in self.iter_point_batches(batch_size, start, count):
            if OBS.enabled:
                OBS.count("kernels.decoded_pages")
                OBS.count("kernels.decoded_records", points.shape[0])
            rid = first_rid + position
            for row in points.tolist():
                yield Record(rid, tuple(row))
                rid += 1


def write_table(table: Table, path: str | Path) -> int:
    """Persist a table's quasi-identifier points; returns record count."""
    with RecordFileWriter(path, table.schema.dimensions) as writer:
        return writer.write_all(record.point for record in table)


def read_table(path: str | Path, schema: Schema | None = None) -> Table:
    """Load a record file fully into memory.

    Without a schema, a generic one is synthesized from the data extent.
    """
    reader = RecordFileReader(path)
    records = list(reader.iter_records())
    if schema is None:
        if records:
            lows = [min(r.point[d] for r in records) for d in range(reader.dimensions)]
            highs = [max(r.point[d] for r in records) for d in range(reader.dimensions)]
        else:
            lows = [0.0] * reader.dimensions
            highs = [1.0] * reader.dimensions
        schema = Schema(
            tuple(
                Attribute.numeric(f"a{d}", lows[d], highs[d])
                for d in range(reader.dimensions)
            )
        )
    return Table(schema, records)
