"""Write-ahead log: framing, validation, group commit, corruption."""

from __future__ import annotations

import struct

import pytest

from repro.dataset.record import Record
from repro.durability.errors import WalCorruption
from repro.durability.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    read_wal,
)


def sample_record(rid: int = 1) -> Record:
    return Record(rid, (1.5, 2.5, 3.5), ("flu",))


def test_round_trip_all_op_kinds(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
        wal.append(("delete", 2, (4.0, 5.0, 6.0)))
        wal.append(("update", 3, (7.0, 8.0, 9.0), sample_record(3)))
        wal.append(("insert", sample_record(4)), batched=True)
        wal.append(("batch_commit", 1))
    scan = read_wal(path)
    kinds = [op.kind for op in scan.ops]
    assert kinds == ["insert", "delete", "update", "insert", "batch_commit"]
    assert scan.ops[0].record == sample_record(1)
    assert not scan.ops[0].batched
    assert scan.ops[1].rid == 2
    assert scan.ops[1].point == (4.0, 5.0, 6.0)
    assert scan.ops[2].record == sample_record(3)
    assert scan.ops[3].batched
    assert scan.ops[4].count == 1
    assert [op.lsn for op in scan.ops] == [1, 2, 3, 4, 5]
    assert scan.last_lsn == 5


def test_every_op_kind_may_be_a_batch_member(tmp_path):
    """A mixed write group is batch members of any kind plus one commit;
    ``read_wal`` reports ``batched`` for each, and each frame reads back
    as the write op it logged."""
    path = tmp_path / "wal.log"
    ops = [
        ("insert", sample_record(1)),
        ("delete", 2, (4.0, 5.0, 6.0)),
        ("update", 3, (7.0, 8.0, 9.0), sample_record(3)),
        ("batch_commit", 0),
    ]
    with WriteAheadLog(path) as wal:
        for op in ops:
            wal.append(op, batched=True)
        wal.append(("batch_commit", 3))
    scan = read_wal(path)
    assert [op.batched for op in scan.ops] == [True, True, True, True, False]
    assert [op.op for op in scan.ops] == [*ops, ("batch_commit", 3)]


def test_start_lsn_continues_numbering(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path, start_lsn=40) as wal:
        assert wal.append(("insert", sample_record())) == 41
    scan = read_wal(path)
    assert scan.start_lsn == 40
    assert scan.ops[0].lsn == 41


def test_open_existing_appends_after_tail(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
    with WriteAheadLog.open_existing(path) as wal:
        assert wal.lsn == 1
        wal.append(("insert", sample_record(2)))
    scan = read_wal(path)
    assert [op.lsn for op in scan.ops] == [1, 2]


def test_empty_wal_scans_clean(tmp_path):
    path = tmp_path / "wal.log"
    WriteAheadLog(path).close()
    scan = read_wal(path)
    assert scan.ops == ()
    assert scan.last_lsn == 0


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(WalCorruption, match="bad magic"):
        read_wal(path)


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(WAL_MAGIC)
    with pytest.raises(WalCorruption, match="shorter than the WAL header"):
        read_wal(path)


def test_torn_tail_strict_raises_lenient_discards(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
        wal.append(("insert", sample_record(2)))
    data = path.read_bytes()
    path.write_bytes(data[:-5])  # tear the final frame mid-payload
    with pytest.raises(WalCorruption, match="truncated frame payload"):
        read_wal(path)
    scan = read_wal(path, allow_torn_tail=True)
    assert [op.lsn for op in scan.ops] == [1]


def test_mid_file_corruption_raises_even_lenient(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
        first_end = path.stat().st_size
        wal.append(("insert", sample_record(2)))
    data = bytearray(path.read_bytes())
    # Flip a bit inside the *first* frame's payload: the intact second
    # frame after it proves this is damage, not a crash-interrupted append.
    data[24] ^= 0x40
    path.write_bytes(bytes(data))
    assert first_end < len(data)
    with pytest.raises(WalCorruption):
        read_wal(path, allow_torn_tail=True)


def test_bit_flip_detected_by_crc(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruption, match="CRC mismatch"):
        read_wal(path)


def test_out_of_order_lsn_raises(tmp_path):
    path = tmp_path / "a.log"
    other = tmp_path / "b.log"
    with WriteAheadLog(path) as wal:
        wal.append(("insert", sample_record(1)))
    with WriteAheadLog(other, start_lsn=10) as wal:
        wal.append(("insert", sample_record(2)))
    # Graft a frame numbered 11 after a frame numbered 1.
    header_size = struct.calcsize("<4sHQ")
    spliced = path.read_bytes() + other.read_bytes()[header_size:]
    path.write_bytes(spliced)
    with pytest.raises(WalCorruption, match="out of order"):
        read_wal(path)


def test_batch_members_defer_sync_to_commit(tmp_path):
    from repro.storage.pagefile import IOStats

    stats = IOStats()
    with WriteAheadLog(tmp_path / "wal.log", io_stats=stats) as wal:
        after_header = stats.fsyncs
        for rid in range(10):
            wal.append(("insert", sample_record(rid)), batched=True)
        assert stats.fsyncs == after_header  # members alone never sync
        wal.append(("batch_commit", 10))
        assert stats.fsyncs == after_header + 1


def test_wal_counters_metered(tmp_path):
    from repro import obs

    obs.enable()
    try:
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append(("insert", sample_record(1)))
            wal.append(("delete", 2, (1.0, 2.0, 3.0)))
        assert obs.OBS.counter_value("wal.appends") == 2
        assert obs.OBS.counter_value("wal.bytes") > 0
        assert obs.OBS.counter_value("wal.fsyncs") >= 2
    finally:
        obs.disable()
