"""One write path: ``RTreeAnonymizer.write`` applies every mutation.

A write group is an ordered list of ops.  It returns each op's own
result, refuses an op the tree refuses without touching the rest, is one
WAL commit and one fsync when durable, and replays through the same
apply code on recovery.
"""

from __future__ import annotations

import contextlib
import hashlib
import random

import pytest

from repro import obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, read_wal, recover
from tests.conftest import random_records


class StreamFailure(Exception):
    """Raised by a test stream part-way through a batch."""


def _engine(schema3, tmp_path=None, records: int = 100) -> RTreeAnonymizer:
    durability = DurabilityConfig(tmp_path / "state") if tmp_path else None
    engine = RTreeAnonymizer(Table(schema3, ()), base_k=5, durability=durability)
    engine.bulk_load(random_records(records, seed=31))
    return engine


def _fresh(records, offset: int) -> list[Record]:
    return [Record(offset + r.rid, r.point, r.sensitive) for r in records]


def _frames_after(tmp_path, lsn: int) -> list:
    return [op for op in read_wal(tmp_path / "state" / "wal.log").ops if op.lsn > lsn]


def _tree_state(tree) -> list:
    """Everything a refused op must leave alone."""
    return [
        (id(leaf), leaf.version, list(leaf.records), leaf.mbr)
        for leaf in tree.leaves()
    ] + [len(tree), tree.root.mbr]


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_write_returns_each_ops_own_result(tmp_path, schema3, durable) -> None:
    engine = _engine(schema3, tmp_path if durable else None)
    victim, mover = random_records(100, seed=31)[7], random_records(100, seed=31)[9]
    moved = Record(mover.rid, (1.0, 2.0, 3.0), mover.sensitive)
    batch = _fresh(random_records(12, seed=32), 1_000)
    results = engine.write(
        [
            ("insert", Record(500, (4.0, 5.0, 6.0), ("flu",))),
            ("insert_batch", batch),
            ("delete", victim.rid, victim.point),
            ("delete", 999_999, (0.0, 0.0, 0.0)),
            ("update", mover.rid, mover.point, moved),
        ]
    )
    assert results[0] is None
    assert results[1] == len(batch)
    assert results[2] == victim
    assert isinstance(results[3], KeyError)
    assert results[4] == mover
    assert len(engine) == 100 + 1 + len(batch) - 1
    engine.tree.check_invariants()
    engine.close()


def test_refused_delete_and_update_change_no_state(schema3) -> None:
    """The tree raises KeyError (unknown rid) and ValueError (the update's
    dimension check) before it changes anything: that is what lets a
    group refuse one op and go on, and a replay refuse it again."""
    engine = _engine(schema3)
    tree = engine.tree
    known = random_records(100, seed=31)[4]
    before = _tree_state(tree)
    with pytest.raises(KeyError):
        tree.delete(999_999, known.point)
    with pytest.raises(KeyError):
        tree.delete(known.rid, (100.0, 100.0, 100.0))  # right rid, wrong leaf
    with pytest.raises(KeyError):
        tree.update(999_999, known.point, Record(999_999, (1.0, 1.0, 1.0), ()))
    with pytest.raises(ValueError):
        tree.update(known.rid, known.point, Record(known.rid, (1.0, 1.0), ()))
    assert _tree_state(tree) == before


def test_a_group_equals_its_ops_one_at_a_time(schema3) -> None:
    grouped, single = _engine(schema3), _engine(schema3)
    records = random_records(100, seed=31)
    ops = [
        ("insert_batch", _fresh(random_records(40, seed=34), 1_000)),
        ("delete", records[3].rid, records[3].point),
        ("delete", 1_003, random_records(40, seed=34)[3].point),
        ("update", records[8].rid, records[8].point, Record(8, (9.0,) * 3, ())),
        ("delete", 999_999, (0.0, 0.0, 0.0)),
        ("insert_batch", _fresh(random_records(25, seed=35), 2_000)),
    ]
    grouped.write(ops)
    for op in ops:
        if op[0] == "insert_batch":
            single.insert_batch(op[1])
        elif op[0] == "update":
            single.update(*op[1:])
        else:
            with contextlib.suppress(KeyError):
                single.delete(*op[1:])
    assert grouped.release(5).digest == single.release(5).digest


def test_a_durable_group_is_one_commit_and_one_fsync(tmp_path, schema3) -> None:
    engine = _engine(schema3, tmp_path)
    records = random_records(100, seed=31)
    start = engine.durability.lsn
    obs.enable()
    try:
        engine.write(
            [
                ("insert_batch", _fresh(random_records(5, seed=36), 1_000)),
                ("delete", records[1].rid, records[1].point),
                ("update", records[2].rid, records[2].point, Record(2, (7.0,) * 3, ())),
            ]
        )
        assert obs.OBS.counter_value("wal.fsyncs") == 1
        assert obs.OBS.counter_value("wal.appends") == 5 + 2 + 1
    finally:
        obs.disable()
        obs.reset()
    engine.close()
    frames = _frames_after(tmp_path, start)
    kinds = ["insert"] * 5 + ["delete", "update", "batch_commit"]
    assert [op.kind for op in frames] == kinds
    assert [op.batched for op in frames] == [True] * 7 + [False]


def test_a_single_record_group_is_one_unbatched_frame(tmp_path, schema3) -> None:
    """A group of one insert, delete or update is one unbatched frame, as
    the single-op calls always logged; a one-record batch is still a batch."""
    engine = _engine(schema3, tmp_path)
    records = random_records(100, seed=31)
    start = engine.durability.lsn
    engine.insert(Record(500, (1.0, 2.0, 3.0), ("flu",)))
    engine.delete(records[1].rid, records[1].point)
    engine.update(records[2].rid, records[2].point, Record(2, (7.0,) * 3, ()))
    with pytest.raises(KeyError):
        engine.delete(999_999, (0.0, 0.0, 0.0))  # refused: nothing logged
    engine.insert_batch([Record(501, (3.0, 2.0, 1.0), ("flu",))])
    engine.close()
    frames = _frames_after(tmp_path, start)
    assert [(op.kind, op.batched) for op in frames] == [
        ("insert", False),
        ("delete", False),
        ("update", False),
        ("insert", True),
        ("batch_commit", False),
    ]


def test_a_refused_op_between_insert_runs_replays_in_two_passes(
    tmp_path, schema3
) -> None:
    """Two insert runs split only by a refused op load in two passes, which
    build a different tree than one pass over both; the log marks the
    split with a run break, so recovery takes the same two passes."""
    engine = _engine(schema3, tmp_path)
    region = random_records(60, seed=33, low=40, high=60)
    first, second = _fresh(region[:30], 1_000), _fresh(region[30:], 2_000)
    results = engine.write(
        [
            ("insert_batch", first),
            ("delete", 999_999, (0.0, 0.0, 0.0)),
            ("insert_batch", second),
        ]
    )
    assert results[0] == results[2] == 30
    assert isinstance(results[1], KeyError)
    live = engine.release(5).digest
    engine.close()
    frames = read_wal(tmp_path / "state" / "wal.log").ops
    breaks = [op for op in frames if op.kind == "batch_commit" and op.batched]
    assert [op.count for op in breaks] == [0]
    one_pass = _engine(schema3)
    one_pass.insert_batch(first + second)
    assert one_pass.release(5).digest != live
    with recover(tmp_path / "state").anonymizer as recovered:
        assert recovered.release(5).digest == live


def test_a_raising_stream_seals_the_applied_prefix(tmp_path, schema3) -> None:
    """An op that raises stops its group: the ops before it and the records
    its stream yielded are applied and sealed, the ops after it are not."""
    engine = _engine(schema3, tmp_path)
    records = random_records(100, seed=31)
    extra = _fresh(random_records(20, seed=37), 1_000)

    def stream():
        yield from extra[:15]
        raise StreamFailure("input stream broke mid-group")

    with pytest.raises(StreamFailure):
        engine.write(
            [
                ("delete", records[5].rid, records[5].point),
                ("insert_batch", stream()),
                ("delete", records[6].rid, records[6].point),
            ]
        )
    assert len(engine) == 100 - 1 + 15
    engine.insert(extra[19])  # the handle keeps working
    live = engine.release(5).digest
    engine.close()
    with recover(tmp_path / "state").anonymizer as recovered:
        assert len(recovered) == 100 - 1 + 15 + 1
        assert recovered.release(5).digest == live


def test_an_unknown_write_kind_is_rejected_before_anything_applies(schema3) -> None:
    engine = _engine(schema3)
    with pytest.raises(ValueError, match="unknown write op"):
        engine.write([("insert", Record(500, (1.0, 2.0, 3.0), ())), ("upsert", 1)])
    assert len(engine) == 100


#: A directory written by the previous single-op write path (the frame
#: format is unchanged): sha256 of its WAL and snapshot files, and the
#: k = 10 digest it recovers to, without and with a checkpoint mid-way.
PARENT_WRITTEN = {
    False: (
        "ecc68b73f9c8a034e48614b89116c9c10ab4aefdb5190322180333c42dff91fa",
        "e826c558c1d49239a26b985d386cdd091fd87cfc0bca4ad595864f7d22e38732",
        253,
    ),
    True: (
        "dd3003eeb0848dcf639e00e2539d20d93e94c32787cbc085c662b4ae9a4a2ece",
        "0905f37b99615d11c856bc4f9dc9230b86e7adeb8c5eaa43f501277740d174e4",
        14,
    ),
}
PARENT_DIGEST = "d66c77ac367380f45b186ebe205de69c5ab1c429de6022dd9e301f5233645a3b"


@pytest.mark.parametrize("checkpointed", [False, True], ids=["log", "tail"])
def test_parent_written_directories_recover_to_the_parent_digest(
    tmp_path, schema3, checkpointed
) -> None:
    """Single-op frames, insert batches and a WAL tail after a checkpoint:
    the files match, byte for byte, what the previous write path wrote for
    the same calls, and they recover to the digest it published."""
    rng = random.Random(29)
    records = [
        Record(
            rid,
            tuple(float(rng.randint(0, 100)) for _ in range(3)),
            (("flu", "cold")[rid % 2],),
        )
        for rid in range(300)
    ]
    directory = tmp_path / "state"
    engine = RTreeAnonymizer(
        Table(schema3, ()), base_k=5, durability=DurabilityConfig(directory)
    )
    engine.bulk_load(records[:200])
    for record in records[200:205]:
        engine.insert(record)
    for record in records[10:12]:
        engine.delete(record.rid, record.point)
    for record in records[20:22]:
        moved = Record(record.rid, (50.0, 50.0, float(record.rid)), record.sensitive)
        engine.update(record.rid, record.point, moved)
    engine.insert_batch(records[210:240])
    if checkpointed:
        engine.checkpoint()
    for record in records[240:243]:
        engine.insert(record)
    engine.delete(records[30].rid, records[30].point)
    engine.insert_batch(records[250:260])
    assert engine.release(10).digest == PARENT_DIGEST
    engine.close()

    wal, snapshot, replayed = PARENT_WRITTEN[checkpointed]
    assert hashlib.sha256((directory / "wal.log").read_bytes()).hexdigest() == wal
    snapshot_bytes = (directory / "checkpoint.snap").read_bytes()
    assert hashlib.sha256(snapshot_bytes).hexdigest() == snapshot
    outcome = recover(directory)
    with outcome.anonymizer as recovered:
        assert recovered.release(10).digest == PARENT_DIGEST
    assert outcome.replayed_ops == replayed
