"""Crash recovery: snapshot restore + WAL replay reproduce exact releases."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, RecoveryError, recover
from repro.durability.manager import DurabilityManager
from tests.conftest import random_records


@pytest.fixture
def records():
    return random_records(400, seed=9)


def durable(schema3, directory, records, loaded: int = 300) -> RTreeAnonymizer:
    table = Table(schema3, tuple(records[:loaded]))
    anonymizer = RTreeAnonymizer(
        table, base_k=5, durability=DurabilityConfig(directory)
    )
    anonymizer.bulk_load(table)
    return anonymizer


def test_recover_reproduces_release_digest(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    for record in records[300:350]:
        anonymizer.insert(record)
    anonymizer.delete(5, records[5].point)
    anonymizer.update(8, records[8].point, Record(8, (3.0, 4.0, 5.0), ("flu",)))
    anonymizer.insert_batch(records[350:])
    digest = release_digest(anonymizer.anonymize(10))
    anonymizer.close()

    result = recover(directory)
    with closing(result.anonymizer) as restored:
        assert release_digest(restored.anonymize(10)) == digest
        restored.tree.check_invariants()
    # 300 bulk + 50 single inserts + delete + update + 50 batched = 402.
    assert result.replayed_ops == 402
    assert result.discarded_ops == 0


def test_recover_after_checkpoint_replays_only_the_tail(
    tmp_path, schema3, records
):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    checkpoint_lsn = anonymizer.checkpoint().lsn
    for record in records[300:320]:
        anonymizer.insert(record)
    digest = release_digest(anonymizer.anonymize(10))
    anonymizer.close()

    result = recover(directory)
    with closing(result.anonymizer) as restored:
        assert release_digest(restored.anonymize(10)) == digest
    assert result.snapshot_lsn == checkpoint_lsn
    assert result.replayed_ops == 20


def test_unsealed_batch_is_discarded_and_truncated(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    digest = release_digest(anonymizer.anonymize(10))
    manager = anonymizer.durability
    # Simulate a crash mid-batch: members logged, commit never written.
    manager.begin(batched=True)
    for record in records[300:310]:
        manager.log(("insert", record))
    manager.sync()
    manager.close()

    result = recover(directory)
    with closing(result.anonymizer) as restored:
        assert len(restored) == 300
        assert release_digest(restored.anonymize(10)) == digest
    assert result.discarded_ops == 10
    # The discarded tail was physically truncated: a second recovery sees
    # a clean log and discards nothing.
    again = recover(directory)
    with closing(again.anonymizer) as restored:
        assert len(restored) == 300
    assert again.discarded_ops == 0


def test_recovered_anonymizer_keeps_logging(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    anonymizer.close()

    with closing(recover(directory).anonymizer) as first:
        for record in records[300:310]:
            first.insert(record)
        digest = release_digest(first.anonymize(10))

    with closing(recover(directory).anonymizer) as second:
        assert len(second) == 310
        assert release_digest(second.anonymize(10)) == digest


def test_recover_missing_directory_raises(tmp_path):
    with pytest.raises(RecoveryError, match="not a directory"):
        recover(tmp_path / "absent")


def test_recover_directory_without_snapshot_raises(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(RecoveryError, match="no checkpoint snapshot"):
        recover(empty)


def test_replay_mismatch_raises(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    manager = anonymizer.durability
    # Log a delete that was never applied: replay cannot find the record.
    manager.begin(batched=False)
    manager.log(("delete", 9_999, (50.0, 50.0, 50.0)))
    manager.commit()
    anonymizer.close()
    with pytest.raises(RecoveryError, match="does not match the snapshot"):
        recover(directory)


def test_fresh_directory_refuses_existing_state(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    anonymizer.close()
    table = Table(schema3, ())
    with pytest.raises(ValueError, match="already holds durable state"):
        RTreeAnonymizer(
            table, base_k=5, durability=DurabilityConfig(directory)
        )


def test_checkpoint_requires_durability(schema3, records):
    table = Table(schema3, tuple(records[:100]))
    anonymizer = RTreeAnonymizer(table, base_k=5)
    anonymizer.bulk_load(table)
    with pytest.raises(ValueError, match="no durability configured"):
        anonymizer.checkpoint()


def test_mutations_while_batch_open_are_rejected(tmp_path, schema3, records):
    directory = tmp_path / "state"
    anonymizer = durable(schema3, directory, records)
    manager = anonymizer.durability
    manager.begin(batched=True)
    manager.log(("insert", records[301]))
    with pytest.raises(RuntimeError, match="batch is open"):
        manager.checkpoint(anonymizer.tree, anonymizer.schema)
    manager.commit()
    anonymizer.close()
