"""The write-ahead log: length+CRC32-framed binary mutation records.

Every incremental mutation the anonymizer acknowledges is first made
durable here, so a crash loses at most the operations that were never
acknowledged.  The format is deliberately simple and self-validating:

* **file header** — magic ``RWAL``, a format version, and the *start LSN*:
  the LSN of the last operation already captured by the checkpoint this
  log continues from (0 for a fresh store).  The first frame in the file
  carries ``start_lsn + 1``.
* **frame** — ``<u32 payload length><u32 crc32(payload)><payload>``.  The
  CRC makes torn writes and bit flips detectable; the length makes frames
  skippable without decoding.
* **payload** — ``<u8 op><u8 flags><u64 lsn>`` followed by an op-specific
  body.  Ops: insert, delete, update, batch-commit.  Flag bit 0 marks a
  *batch member*, not durable (and discarded by recovery) until the
  batch-commit frame that seals it.  A write group
  (:meth:`repro.core.anonymizer.RTreeAnonymizer.write`) is one unbatched
  frame (exactly one insert, delete or update) or members of any kind
  plus one batch-commit.  A *batched* batch-commit seals nothing: it is a
  run break, starting an insert run that follows other members.

Every unbatched frame syncs; members wait for their commit's sync — one
fsync per write group.  Appends, bytes and fsyncs are metered through
:data:`repro.obs.OBS` (``wal.appends``, ``wal.bytes``, ``wal.fsyncs``)
and, when the caller shares one, an
:class:`repro.storage.pagefile.IOStats` so WAL traffic lands in the same
I/O ledger as the simulated page store.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Sequence

from repro.dataset.record import Record
from repro.durability.errors import WalCorruption
from repro.obs import OBS, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.pagefile import IOStats

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1

#: Default WAL file name inside a durability directory.
WAL_NAME = "wal.log"

_HEADER = struct.Struct("<4sHQ")  # magic, version, start lsn
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PREFIX = struct.Struct("<BBQ")  # op, flags, lsn

#: Upper bound on one frame's payload; anything larger is corruption.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

OP_INSERT = 1
OP_DELETE = 2
OP_UPDATE = 3
OP_BATCH_COMMIT = 4

_OP_NAMES = {
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_UPDATE: "update",
    OP_BATCH_COMMIT: "batch_commit",
}

FLAG_BATCHED = 1


def _pack_record(record: Record) -> bytes:
    point = tuple(float(value) for value in record.point)
    sensitive = json.dumps(list(record.sensitive)).encode("utf-8")
    return b"".join(
        (
            struct.pack("<qH", record.rid, len(point)),
            struct.pack(f"<{len(point)}d", *point),
            struct.pack("<I", len(sensitive)),
            sensitive,
        )
    )


def _unpack_record(payload: bytes, offset: int) -> tuple[Record, int]:
    rid, dimensions = struct.unpack_from("<qH", payload, offset)
    offset += struct.calcsize("<qH")
    point = struct.unpack_from(f"<{dimensions}d", payload, offset)
    offset += 8 * dimensions
    (sensitive_length,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    raw = payload[offset : offset + sensitive_length]
    if len(raw) != sensitive_length:
        raise ValueError("sensitive payload shorter than declared")
    offset += sensitive_length
    sensitive = tuple(json.loads(raw.decode("utf-8"))) if raw else ()
    return Record(rid, point, sensitive), offset


def _pack_point(rid: int, point: Sequence[float]) -> bytes:
    values = tuple(float(value) for value in point)
    return struct.pack("<qH", rid, len(values)) + struct.pack(
        f"<{len(values)}d", *values
    )


def _unpack_point(payload: bytes, offset: int) -> tuple[int, tuple[float, ...], int]:
    rid, dimensions = struct.unpack_from("<qH", payload, offset)
    offset += struct.calcsize("<qH")
    point = struct.unpack_from(f"<{dimensions}d", payload, offset)
    return rid, point, offset + 8 * dimensions


@dataclass(frozen=True)
class WalOp:
    """One decoded WAL operation."""

    lsn: int
    kind: str
    batched: bool = False
    record: Record | None = None
    rid: int | None = None
    point: tuple[float, ...] | None = None
    count: int | None = None
    #: Byte offset of the end of this op's frame (for truncation/kill points).
    end_offset: int = 0

    @property
    def op(self) -> tuple:
        """The frame as a write op (``RTreeAnonymizer.write``'s vocabulary)."""
        fields = (self.rid, self.point, self.record, self.count)
        return (self.kind, *[value for value in fields if value is not None])


@dataclass(frozen=True)
class WalScan:
    """The result of reading a WAL file front to back."""

    path: Path
    start_lsn: int
    ops: tuple[WalOp, ...]
    #: Byte offset one past the last valid frame (header end when empty).
    end_offset: int = 0

    @property
    def last_lsn(self) -> int:
        return self.ops[-1].lsn if self.ops else self.start_lsn


class WriteAheadLog:
    """Appender over one WAL file; one fsync per unbatched frame or commit."""

    def __init__(
        self,
        path: str | Path,
        *,
        start_lsn: int = 0,
        io_stats: "IOStats | None" = None,
        _existing_scan: WalScan | None = None,
    ) -> None:
        self._io_stats = io_stats
        self._dirty = False
        if _existing_scan is None:
            self._lsn = start_lsn
            self._handle: BinaryIO = open(path, "wb")
            self._handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, start_lsn))
            self._dirty = True
            self.sync()
        else:
            self._lsn = _existing_scan.last_lsn
            self._handle = open(path, "r+b")
            self._handle.seek(_existing_scan.end_offset)
            self._handle.truncate()

    @classmethod
    def open_existing(
        cls,
        path: str | Path,
        *,
        io_stats: "IOStats | None" = None,
    ) -> "WriteAheadLog":
        """Reopen a validated WAL for appending (the post-recovery path).

        The file is scanned and validated first; any torn tail recovery
        chose to discard must already be truncated away by the caller — a
        corrupt file raises :class:`WalCorruption` here rather than being
        silently appended to.
        """
        scan = read_wal(path)
        return cls(path, io_stats=io_stats, _existing_scan=scan)

    @property
    def lsn(self) -> int:
        """The LSN of the last appended operation."""
        return self._lsn

    # -- appends -------------------------------------------------------------

    def append(self, op: tuple, *, batched: bool = False) -> int:
        """Log a write op or ``("batch_commit", count)``; return its LSN.

        An unbatched frame is synced before this returns.
        """
        kind = op[0]
        if kind == "insert":
            code, body = OP_INSERT, _pack_record(op[1])
        elif kind == "delete":
            code, body = OP_DELETE, _pack_point(op[1], op[2])
        elif kind == "update":
            code, body = OP_UPDATE, _pack_point(op[1], op[2]) + _pack_record(op[3])
        elif kind == "batch_commit":
            code, body = OP_BATCH_COMMIT, struct.pack("<Q", op[1])
        else:
            raise ValueError(f"unknown WAL op {kind!r}")
        self._lsn += 1
        payload = _PREFIX.pack(code, FLAG_BATCHED if batched else 0, self._lsn) + body
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(frame)
        self._dirty = True
        if OBS.enabled:
            OBS.count("wal.appends")
            OBS.count("wal.bytes", len(frame))
        if not batched:
            self.sync()
        return self._lsn

    def sync(self) -> None:
        """Flush buffered frames and fsync them to stable storage.

        The ``wal.fsync`` span feeds the ``wal.fsync_seconds`` histogram —
        the p99 of this distribution is the floor under every acknowledged
        write's latency, which is why the serving telemetry surfaces it.
        """
        if not self._dirty:
            return
        with span("wal.fsync"):
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._dirty = False
        if OBS.enabled:
            OBS.count("wal.fsyncs")
        if self._io_stats is not None:
            self._io_stats.fsyncs += 1

    def close(self) -> None:
        """Sync and close; the file is closed even when the sync raises."""
        if self._handle.closed:
            return
        try:
            self.sync()
        finally:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_wal(path: str | Path, *, allow_torn_tail: bool = False) -> WalScan:
    """Read and validate a WAL file front to back.

    Any malformed frame — short header, short payload, CRC mismatch,
    unknown op, out-of-order LSN — raises :class:`WalCorruption` naming
    the byte offset.  With ``allow_torn_tail=True`` a defect in the *final*
    frame is instead treated as a torn write and the scan stops before it
    (mid-file corruption still raises: valid frames after a bad one prove
    the damage was not a crash-interrupted append).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise WalCorruption(path, 0, "file shorter than the WAL header")
    magic, version, start_lsn = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalCorruption(path, 0, f"bad magic {magic!r}")
    if version != WAL_VERSION:
        raise WalCorruption(path, 0, f"unsupported WAL version {version}")
    ops: list[WalOp] = []
    offset = _HEADER.size
    expected_lsn = start_lsn + 1

    def torn(at: int, reason: str) -> WalScan:
        if allow_torn_tail and _frames_after(data, at) == 0:
            return WalScan(path, start_lsn, tuple(ops), at)
        raise WalCorruption(path, at, reason)

    def _frames_after(buffer: bytes, damaged_at: int) -> int:
        # Step past the damaged frame by its declared length (when the
        # frame header survived) before counting: a CRC-failed frame with
        # *valid* frames behind it is mid-file damage, not a torn tail.
        offset = damaged_at
        if len(buffer) - offset >= _FRAME.size:
            (length, _) = _FRAME.unpack_from(buffer, offset)
            if length <= MAX_PAYLOAD_BYTES:
                offset += _FRAME.size + length
        return _whole_frames_from(buffer, offset)

    while offset < len(data):
        frame_start = offset
        if len(data) - offset < _FRAME.size:
            return torn(frame_start, "truncated frame header")
        length, crc = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        if length > MAX_PAYLOAD_BYTES:
            return torn(frame_start, f"implausible payload length {length}")
        payload = data[offset : offset + length]
        if len(payload) != length:
            return torn(frame_start, "truncated frame payload")
        offset += length
        if zlib.crc32(payload) != crc:
            return torn(frame_start, "payload CRC mismatch")
        try:
            op = _decode_payload(payload, offset)
        except (struct.error, ValueError, UnicodeDecodeError) as error:
            raise WalCorruption(path, frame_start, f"undecodable payload: {error}")
        if op.lsn != expected_lsn:
            raise WalCorruption(
                path,
                frame_start,
                f"LSN {op.lsn} out of order (expected {expected_lsn})",
            )
        expected_lsn += 1
        ops.append(op)
    return WalScan(path, start_lsn, tuple(ops), offset)


def _whole_frames_from(data: bytes, offset: int) -> int:
    """Count syntactically whole frames starting at ``offset``.

    Used to distinguish a torn tail (nothing decodable follows the damage)
    from mid-file corruption (valid frames continue after it).
    """
    count = 0
    while offset < len(data):
        if len(data) - offset < _FRAME.size:
            break
        length, crc = _FRAME.unpack_from(data, offset)
        if length > MAX_PAYLOAD_BYTES:
            break
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            break
        count += 1
        offset += _FRAME.size + length
    return count


def _decode_payload(payload: bytes, end_offset: int) -> WalOp:
    op, flags, lsn = _PREFIX.unpack_from(payload, 0)
    offset = _PREFIX.size
    kind = _OP_NAMES.get(op)
    if kind is None:
        raise ValueError(f"unknown op code {op}")
    fields: dict = {}
    if op in (OP_DELETE, OP_UPDATE):
        fields["rid"], fields["point"], offset = _unpack_point(payload, offset)
    if op in (OP_INSERT, OP_UPDATE):
        fields["record"], _ = _unpack_record(payload, offset)
    if op == OP_BATCH_COMMIT:
        (fields["count"],) = struct.unpack_from("<Q", payload, offset)
    return WalOp(lsn, kind, bool(flags & FLAG_BATCHED), end_offset=end_offset, **fields)
