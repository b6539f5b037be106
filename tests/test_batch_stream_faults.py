"""A batch whose input stream raises keeps every record it consumed.

The buffered loader applies each record it pulls from the stream; on a
durable anonymizer each was also logged as a batch member.  When the
stream raises part-way, the consumed prefix must land in the tree and,
when durable, be sealed in the WAL — so the live state, the log and a
cold recovery all agree, and the next write does not land inside an
unsealed batch.  A failed log append is different: it stops the handle.
"""

from __future__ import annotations

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, DurabilityError, recover
from tests.conftest import random_records
from tests.test_mutation_faults import FaultyWAL


class StreamFailure(Exception):
    """Raised by the test stream after its last record."""


def _failing_stream(records):
    yield from records
    raise StreamFailure("input stream broke mid-batch")


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("yielded", [10, 1_200, 3_000])
def test_raising_batch_keeps_consumed_records(tmp_path, schema3, durable, yielded):
    base = random_records(300, seed=41)
    table = Table(schema3, tuple(base))
    durability = DurabilityConfig(tmp_path / "state") if durable else None
    anonymizer = RTreeAnonymizer(table, base_k=5, durability=durability)
    anonymizer.bulk_load(table)
    extra = [
        Record(1_000 + record.rid, record.point, record.sensitive)
        for record in random_records(yielded + 1, seed=42)
    ]

    with pytest.raises(StreamFailure):
        anonymizer.insert_batch(_failing_stream(extra[:yielded]))

    held = {record.rid for leaf in anonymizer.tree.leaves() for record in leaf.records}
    assert held == {record.rid for record in base + extra[:yielded]}
    assert anonymizer.loader.buffered_records == 0
    anonymizer.tree.check_invariants()

    anonymizer.insert(extra[yielded])
    live = release_digest(anonymizer.anonymize(10))
    assert len(anonymizer) == len(base) + yielded + 1
    anonymizer.close()
    if durable:
        outcome = recover(tmp_path / "state")
        assert release_digest(outcome.anonymizer.anonymize(10)) == live
        outcome.anonymizer.close()


def test_failed_member_append_stops_the_handle(tmp_path, schema3):
    """A batch member whose WAL append fails stops the handle: the batch
    was never sealed, so a later write is refused and recovery discards
    the members that reached the log."""
    base = random_records(300, seed=43)
    table = Table(schema3, tuple(base))
    anonymizer = RTreeAnonymizer(
        table, base_k=5, durability=DurabilityConfig(tmp_path / "state")
    )
    anonymizer.bulk_load(table)
    acknowledged = anonymizer.release(10).digest
    manager = anonymizer.durability
    wal = FaultyWAL(manager._wal)
    manager._wal = wal
    extra = [
        Record(1_000 + record.rid, record.point, record.sensitive)
        for record in random_records(702, seed=44)
    ]

    def stream():
        yield from extra[:700]
        wal.armed = True
        yield extra[700]

    with pytest.raises(OSError, match="injected"):
        anonymizer.insert_batch(stream())
    wal.armed = False
    with pytest.raises(DurabilityError):
        anonymizer.insert(extra[701])
    anonymizer.close()
    outcome = recover(tmp_path / "state")
    with outcome.anonymizer as restored:
        assert len(restored) == len(base)
        assert restored.release(10).digest == acknowledged
    assert outcome.discarded_ops == 700
