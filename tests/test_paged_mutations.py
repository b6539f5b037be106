"""Delete/update on a PagedLeafStore-backed tree, incl. durable replay.

The paged store mirrors every leaf mutation into the simulated page file;
deletes that dissolve a leaf must release its pages, and a WAL replay of
those same deletes (recovery onto a *fresh* pool) must rebuild an
identical partitioning.
"""

from __future__ import annotations

from contextlib import closing

from repro import obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, recover
from repro.index.leaf_store import PagedLeafStore
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile
from tests.conftest import random_records


def fresh_pool() -> BufferPool[Record]:
    pagefile: PageFile[Record] = PageFile(page_bytes=512, record_bytes=36)
    return BufferPool(pagefile, 64 * 1024)


def paged_anonymizer(schema3, records, directory=None):
    table = Table(schema3, tuple(records))
    anonymizer = RTreeAnonymizer(
        table,
        base_k=5,
        leaf_capacity=9,
        pool=fresh_pool(),
        durability=DurabilityConfig(directory) if directory else None,
    )
    anonymizer.bulk_load(table)
    return anonymizer


def test_deletes_dissolve_leaves_and_release_pages(schema3):
    records = random_records(180, seed=21)
    anonymizer = paged_anonymizer(schema3, records)
    store = anonymizer.tree._store
    assert isinstance(store, PagedLeafStore)
    obs.enable()
    try:
        # Drain one spatial region: forces occupancy below k => dissolves.
        victims = sorted(records, key=lambda r: r.point)[:60]
        for victim in victims:
            anonymizer.delete(victim.rid, victim.point)
        assert obs.OBS.counter_value("rtree.dissolves") > 0
    finally:
        obs.disable()
    anonymizer.tree.check_invariants()
    assert len(anonymizer) == 120
    # Every surviving leaf is still backed by pages; dissolved leaves not.
    live_ids = {leaf.node_id for leaf in anonymizer.tree.leaves()}
    for leaf in anonymizer.tree.leaves():
        assert store.pages_of(leaf), "live leaf lost its backing pages"
    assert set(store._pages) == live_ids


def test_update_moves_record_between_paged_leaves(schema3):
    records = random_records(120, seed=22)
    anonymizer = paged_anonymizer(schema3, records)
    moved = Record(records[0].rid, (0.0, 0.0, 0.0), records[0].sensitive)
    anonymizer.update(records[0].rid, records[0].point, moved)
    anonymizer.tree.check_invariants()
    found = anonymizer.tree.locate_leaf((0.0, 0.0, 0.0))
    assert any(r.rid == moved.rid for r in found.records)


def test_wal_replay_of_dissolving_deletes_onto_fresh_pool(tmp_path, schema3):
    records = random_records(180, seed=23)
    directory = tmp_path / "state"
    anonymizer = paged_anonymizer(schema3, records, directory=directory)
    victims = sorted(records, key=lambda r: r.point)[:60]
    for victim in victims:
        anonymizer.delete(victim.rid, victim.point)
    digest = release_digest(anonymizer.anonymize(5))
    anonymizer.close()

    # Recovery replays bulk load + 60 deletes against a brand-new pool.
    result = recover(directory, pool=fresh_pool())
    assert result.replayed_ops == 180 + 60
    with closing(result.anonymizer) as restored:
        restored.tree.check_invariants()
        assert len(restored) == 120
        assert release_digest(restored.anonymize(5)) == digest
        store = restored.tree._store
        assert isinstance(store, PagedLeafStore)
        for leaf in restored.tree.leaves():
            assert store.pages_of(leaf)


def test_recovery_without_pool_matches_paged_run_digest(tmp_path, schema3):
    records = random_records(150, seed=24)
    directory = tmp_path / "state"
    anonymizer = paged_anonymizer(schema3, records, directory=directory)
    for victim in records[:20]:
        anonymizer.delete(victim.rid, victim.point)
    digest = release_digest(anonymizer.anonymize(5))
    anonymizer.close()
    # The leaf store is an I/O mirror, not part of the logical state: a
    # pool-less recovery must still reproduce the partitioning exactly.
    with closing(recover(directory).anonymizer) as restored:
        assert release_digest(restored.anonymize(5)) == digest
