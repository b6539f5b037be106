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
  body.  Ops: insert, delete, update, batch-commit.  Flag bit 0 marks an
  insert as a *batch member*: batch members are not durable (and are
  discarded by recovery) until the batch-commit frame that seals them —
  the group-commit unit of the bulk/batched ingestion paths.

Fsync policy is group commit: a ``group_commit_window`` of 0 (the default)
syncs on every committed append, a positive window lets consecutive
appends share one fsync until the window elapses, and batch members never
sync individually — their batch-commit frame does.  Appends, bytes and
fsyncs are metered through :data:`repro.obs.OBS` (``wal.appends``,
``wal.bytes``, ``wal.fsyncs``) and, when the caller shares one, an
:class:`repro.storage.pagefile.IOStats` so WAL traffic lands in the same
I/O ledger as the simulated page store.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Hashable, Sequence

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
    """Appender over one WAL file with group-commit fsync batching."""

    def __init__(
        self,
        path: str | Path,
        *,
        start_lsn: int = 0,
        group_commit_window: float = 0.0,
        io_stats: "IOStats | None" = None,
        _existing_scan: WalScan | None = None,
    ) -> None:
        self._path = Path(path)
        self._window = group_commit_window
        self._io_stats = io_stats
        self._dirty = False
        self._last_sync = time.monotonic()
        if _existing_scan is None:
            self._start_lsn = start_lsn
            self._lsn = start_lsn
            self._handle: BinaryIO = open(self._path, "wb")
            self._handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, start_lsn))
            self._dirty = True
            self.sync()
        else:
            self._start_lsn = _existing_scan.start_lsn
            self._lsn = _existing_scan.last_lsn
            self._handle = open(self._path, "r+b")
            self._handle.seek(_existing_scan.end_offset)
            self._handle.truncate()

    @classmethod
    def open_existing(
        cls,
        path: str | Path,
        *,
        group_commit_window: float = 0.0,
        io_stats: "IOStats | None" = None,
    ) -> "WriteAheadLog":
        """Reopen a validated WAL for appending (the post-recovery path).

        The file is scanned and validated first; any torn tail recovery
        chose to discard must already be truncated away by the caller — a
        corrupt file raises :class:`WalCorruption` here rather than being
        silently appended to.
        """
        scan = read_wal(path)
        return cls(
            path,
            group_commit_window=group_commit_window,
            io_stats=io_stats,
            _existing_scan=scan,
        )

    # -- accessors -----------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def lsn(self) -> int:
        """The LSN of the last appended operation."""
        return self._lsn

    @property
    def start_lsn(self) -> int:
        return self._start_lsn

    @property
    def closed(self) -> bool:
        return self._handle.closed

    # -- appends -------------------------------------------------------------

    def append_insert(self, record: Record, *, batched: bool = False) -> int:
        """Log one insert; batch members defer durability to the commit."""
        flags = FLAG_BATCHED if batched else 0
        return self._append(OP_INSERT, flags, _pack_record(record), sync=not batched)

    def append_delete(self, rid: int, point: Sequence[float]) -> int:
        return self._append(OP_DELETE, 0, _pack_point(rid, point), sync=True)

    def append_update(
        self, rid: int, old_point: Sequence[float], record: Record
    ) -> int:
        body = _pack_point(rid, old_point) + _pack_record(record)
        return self._append(OP_UPDATE, 0, body, sync=True)

    def append_batch_commit(self, count: int) -> int:
        """Seal the preceding ``count`` batch-member inserts; always syncs."""
        lsn = self._append(OP_BATCH_COMMIT, 0, struct.pack("<Q", count), sync=True)
        self.sync()
        return lsn

    def _append(self, op: int, flags: int, body: bytes, *, sync: bool) -> int:
        self._lsn += 1
        payload = _PREFIX.pack(op, flags, self._lsn) + body
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(frame)
        self._dirty = True
        if OBS.enabled:
            OBS.count("wal.appends")
            OBS.count("wal.bytes", len(frame))
        if sync:
            if self._window <= 0.0:
                self.sync()
            elif time.monotonic() - self._last_sync >= self._window:
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
            self._last_sync = time.monotonic()
        if OBS.enabled:
            OBS.count("wal.fsyncs")
        if self._io_stats is not None:
            self._io_stats.fsyncs += 1

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
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
    body_offset = _PREFIX.size
    kind = _OP_NAMES.get(op)
    if kind is None:
        raise ValueError(f"unknown op code {op}")
    batched = bool(flags & FLAG_BATCHED)
    if op == OP_INSERT:
        record, _ = _unpack_record(payload, body_offset)
        return WalOp(lsn, kind, batched, record=record, end_offset=end_offset)
    if op == OP_DELETE:
        rid, point, _ = _unpack_point(payload, body_offset)
        return WalOp(lsn, kind, rid=rid, point=point, end_offset=end_offset)
    if op == OP_UPDATE:
        rid, point, next_offset = _unpack_point(payload, body_offset)
        record, _ = _unpack_record(payload, next_offset)
        return WalOp(
            lsn, kind, rid=rid, point=point, record=record, end_offset=end_offset
        )
    (count,) = struct.unpack_from("<Q", payload, body_offset)
    return WalOp(lsn, kind, count=count, end_offset=end_offset)
