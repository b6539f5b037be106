"""A failed write-ahead-log write stops the durable handle.

The anonymizer applies a write group to the in-memory tree and logs it
as it goes.  If a log append or the group's commit raises (disk full,
I/O error), the group was never acknowledged, yet the tree may already
hold part of it — and no in-memory compensation can be exact (undoing an
insert does not merge back the leaf it split).  So the handle stops:
every later write, release and checkpoint raises ``DurabilityError``,
chained to the first failure, and ``recover(dir)`` returns the last
acknowledged state.
"""

from __future__ import annotations

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, DurabilityError, recover
from tests.conftest import random_records


class FaultyWAL:
    """A write-ahead log wrapper whose appends fail while armed.

    ``fail_on`` limits the failure to frames of one op kind (for example
    ``"batch_commit"``); ``None`` fails every append.
    """

    def __init__(self, inner, fail_on: str | None = None) -> None:  # noqa: ANN001
        self._inner = inner
        self.armed = False
        self.fail_on = fail_on

    def append(self, op, **kwargs):  # noqa: ANN001, ANN003
        if self.armed and self.fail_on in (None, op[0]):
            raise OSError("injected WAL append failure (disk full)")
        return self._inner.append(op, **kwargs)

    def __getattr__(self, name: str):  # noqa: ANN204 - delegate the rest
        return getattr(self._inner, name)


@pytest.fixture
def faulty_durable(tmp_path, schema3):
    """A checkpointed durable anonymizer whose WAL can be armed to fail."""
    records = random_records(100, seed=31)
    table = Table(schema3, tuple(records))
    anonymizer = RTreeAnonymizer(
        table, base_k=5, durability=DurabilityConfig(tmp_path / "state")
    )
    anonymizer.bulk_load(table)
    anonymizer.checkpoint()
    manager = anonymizer.durability
    assert manager is not None
    wal = FaultyWAL(manager._wal)
    manager._wal = wal
    return anonymizer, wal, records


def _assert_stopped(anonymizer: RTreeAnonymizer) -> None:
    """Every later write, release and checkpoint raises DurabilityError,
    chained to the injected failure; close() does not raise it again."""
    probes = [
        lambda: anonymizer.insert(Record(900, (1.0, 1.0, 1.0), ("flu",))),
        lambda: anonymizer.write([("delete", 0, (0.0, 0.0, 0.0))]),
        lambda: anonymizer.release(5),
        lambda: anonymizer.anonymize(5),
        lambda: anonymizer.checkpoint(),
    ]
    for probe in probes:
        with pytest.raises(DurabilityError) as stopped:
            probe()
        assert isinstance(stopped.value.__cause__, OSError)
    anonymizer.close()


def _recovered(tmp_path, k: int = 5) -> tuple[int, str]:
    """A cold recovery's record count and release digest."""
    with recover(tmp_path / "state").anonymizer as restored:
        return len(restored), restored.release(k).digest


@pytest.mark.parametrize("operation", ["insert", "delete", "update"])
def test_failed_log_append_stops_the_handle(faulty_durable, tmp_path, operation):
    anonymizer, wal, records = faulty_durable
    acknowledged = anonymizer.release(5).digest
    old = records[23]
    wal.armed = True
    with pytest.raises(OSError, match="injected"):
        if operation == "insert":
            anonymizer.insert(Record(500, (1.0, 2.0, 3.0), ("flu",)))
        elif operation == "delete":
            anonymizer.delete(old.rid, old.point)
        else:
            moved = Record(old.rid, (50.0, 50.0, 50.0), old.sensitive)
            anonymizer.update(old.rid, old.point, moved)
    wal.armed = False
    _assert_stopped(anonymizer)
    assert _recovered(tmp_path) == (100, acknowledged)


def test_later_checkpoint_cannot_persist_an_unlogged_op(faulty_durable, tmp_path):
    """A failed log, then a checkpoint, then a crash: the checkpoint must
    not persist the write the log never saw."""
    anonymizer, wal, _records = faulty_durable
    acknowledged = anonymizer.release(5).digest
    wal.armed = True
    with pytest.raises(OSError, match="injected"):
        anonymizer.insert(Record(501, (9.0, 9.0, 9.0), ("flu",)))
    wal.armed = False
    with pytest.raises(DurabilityError):
        anonymizer.checkpoint()
    anonymizer.close()
    assert _recovered(tmp_path) == (100, acknowledged)


def test_failed_insert_that_split_a_leaf_recovers_the_acknowledged_tree(
    faulty_durable, tmp_path
):
    """An insert whose log append fails after it split a leaf.  Deleting
    the record again would not merge the leaf back, so the live tree
    could never match a recovery; the stopped handle serves nothing, and
    the recovery holds the tree as of the last acknowledged insert."""
    anonymizer, wal, _records = faulty_durable
    tree = anonymizer.tree
    rid = 1_000
    while True:  # fill one region until the next insert overflows its leaf
        point = (40.0 + rid % 7, 40.0 + rid // 7 % 7, 50.0)
        if len(tree.locate_leaf(point).records) == tree.leaf_capacity:
            break
        anonymizer.insert(Record(rid, point, ("flu",)))
        rid += 1
    acknowledged = anonymizer.release(5).digest
    leaves = anonymizer.leaf_count()
    wal.armed = True
    with pytest.raises(OSError, match="injected"):
        anonymizer.insert(Record(rid, point, ("flu",)))
    wal.armed = False
    assert anonymizer.leaf_count() > leaves  # the failed insert split a leaf
    _assert_stopped(anonymizer)
    assert _recovered(tmp_path) == (100 + rid - 1_000, acknowledged)


def test_failed_batch_commit_then_a_later_write_recovers(faulty_durable, tmp_path):
    """A batch whose commit fails is discarded by recovery, and a later
    write is refused instead of landing after the unsealed members."""
    anonymizer, wal, _records = faulty_durable
    acknowledged = anonymizer.release(5).digest
    batch = [
        Record(2_000 + record.rid, record.point, record.sensitive)
        for record in random_records(10, seed=32)
    ]
    wal.fail_on = "batch_commit"
    wal.armed = True
    with pytest.raises(OSError, match="injected"):
        anonymizer.insert_batch(batch)
    wal.armed = False
    with pytest.raises(DurabilityError):
        anonymizer.insert(Record(3_000, (5.0, 5.0, 5.0), ("flu",)))
    _assert_stopped(anonymizer)
    outcome = recover(tmp_path / "state")
    with outcome.anonymizer as restored:
        assert len(restored) == 100
        assert restored.release(5).digest == acknowledged
    assert outcome.discarded_ops == len(batch)
