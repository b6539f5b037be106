"""Tree lifetime: a dropped handle frees every node without the cyclic collector.

Nodes link only downward (an internal node's cut slots hold its children;
no child points back), so an anonymizer's tree holds no reference cycle.
These tests switch the cyclic collector off, drive each handle type
through the operations that restructure the tree — splits, dissolves,
level collapse, checkpoint restore — and check that dropping the handle
returns the live :class:`~repro.index.node.Node` count to its baseline.
They count objects rather than use weak references: ``Node`` declares
``__slots__`` without ``__weakref__``.
"""

from __future__ import annotations

import gc

import pytest

from repro import api
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig
from repro.index.node import Node
from tests.conftest import random_records


def live_nodes() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Node))


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def moved(record: Record) -> Record:
    return Record(record.rid, tuple(100.0 - v for v in record.point), record.sensitive)


def test_dropped_open_handle_frees_its_tree(no_cyclic_gc, schema3):
    baseline = live_nodes()
    records = random_records(600, seed=21)
    handle = api.open(schema3, base_k=5)
    handle.load(Table(schema3, tuple(records)))
    assert handle.release(k=10).k_satisfied
    height = handle.engine.tree.height
    for record in records[:590]:
        handle.delete(record.rid, record.point)
    assert handle.engine.tree.height < height  # dissolves collapsed the levels
    for record in records[590:]:
        handle.update(record.rid, record.point, moved(record))
    assert handle.release(k=10).k_satisfied
    assert live_nodes() > baseline
    del handle
    assert live_nodes() == baseline


def test_closed_durable_service_frees_its_tree(no_cyclic_gc, tmp_path, schema3):
    baseline = live_nodes()
    records = random_records(400, seed=22)
    service = api.serve(
        schema3, base_k=5, durability=DurabilityConfig(tmp_path / "state")
    )
    service.load(Table(schema3, tuple(records[:300])))
    service.insert_batch(records[300:])
    for record in records[:40]:
        service.delete(record.rid, record.point)
    for record in records[40:60]:
        service.update(record.rid, record.point, moved(record))
    assert service.release(10).k_satisfied
    # The service has no checkpoint call of its own; after the barrier its
    # writer is idle, so checkpointing the engine directly is safe here.
    service.barrier()
    service.engine.checkpoint()
    service.close()
    assert live_nodes() > baseline
    del service
    assert live_nodes() == baseline


def test_recovered_handle_frees_its_tree(no_cyclic_gc, tmp_path, schema3):
    directory = tmp_path / "state"
    records = random_records(400, seed=23)
    with api.open(
        schema3, base_k=5, durability=DurabilityConfig(directory)
    ) as handle:
        handle.load(Table(schema3, tuple(records[:300])))
        handle.checkpoint()
        handle.insert_batch(records[300:])
        for record in records[:30]:
            handle.delete(record.rid, record.point)
    del handle
    baseline = live_nodes()
    with api.recover(directory) as recovered:
        assert recovered.recovery.snapshot_lsn > 0  # restored from a checkpoint
        assert len(recovered) == 370
        assert recovered.release(k=10).k_satisfied
    assert live_nodes() > baseline
    del recovered
    assert live_nodes() == baseline
