"""Checkpoint snapshots: serialization fidelity, atomicity, corruption."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, recover
from repro.durability.checkpoint import (
    _HEADER,
    SNAPSHOT_MAGIC,
    SNAPSHOT_NAME,
    SNAPSHOT_VERSION,
    read_snapshot,
    restore_schema,
    restore_tree,
    serialize_schema,
    serialize_tree,
    write_snapshot,
)
from repro.durability.errors import SnapshotCorruption
from tests.conftest import random_records


def built_anonymizer(schema3, count: int = 300) -> RTreeAnonymizer:
    table = Table(schema3, random_records(count, seed=4))
    anonymizer = RTreeAnonymizer(table, base_k=5)
    anonymizer.bulk_load(table)
    return anonymizer


def test_tree_round_trip_preserves_topology(schema3):
    anonymizer = built_anonymizer(schema3)
    tree = anonymizer.tree
    restored = restore_tree(serialize_tree(tree))
    restored.check_invariants()
    assert len(restored) == len(tree)
    assert restored.k == tree.k
    assert restored.leaf_capacity == tree.leaf_capacity
    assert restored.domain_extents == tree.domain_extents
    original_leaves = [
        sorted(r.rid for r in leaf.records) for leaf in tree.leaves()
    ]
    restored_leaves = [
        sorted(r.rid for r in leaf.records) for leaf in restored.leaves()
    ]
    assert restored_leaves == original_leaves


def test_restored_mbrs_are_recomputed_not_trusted(schema3):
    anonymizer = built_anonymizer(schema3)
    restored = restore_tree(serialize_tree(anonymizer.tree))
    for original, copy in zip(anonymizer.tree.leaves(), restored.leaves()):
        assert copy.mbr == original.mbr


def test_schema_round_trip(schema3):
    restored = restore_schema(serialize_schema(schema3))
    assert restored.dimensions == schema3.dimensions
    assert restored.sensitive == schema3.sensitive
    for original, copy in zip(
        schema3.quasi_identifiers, restored.quasi_identifiers
    ):
        assert copy.name == original.name
        assert copy.kind == original.kind
        assert copy.domain_low == original.domain_low
        assert copy.domain_high == original.domain_high


def test_snapshot_file_round_trip(tmp_path, schema3):
    anonymizer = built_anonymizer(schema3)
    path = tmp_path / "checkpoint.snap"
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=123)
    snapshot = read_snapshot(path)
    assert snapshot.lsn == 123
    assert snapshot.base_k == 5
    assert len(snapshot.tree) == len(anonymizer.tree)
    snapshot.tree.check_invariants()


def test_snapshot_with_release_watermarks_still_recovers(tmp_path, schema3):
    """Earlier writers stored release counters in a ``watermarks`` block
    beside the tree; the reader ignores it, so their directories recover
    to the same release."""
    directory = tmp_path / "state"
    table = Table(schema3, random_records(300, seed=4))
    anonymizer = RTreeAnonymizer(
        table, base_k=5, durability=DurabilityConfig(directory)
    )
    anonymizer.bulk_load(table)
    lsn = anonymizer.checkpoint().lsn
    digest = anonymizer.release(10).digest
    anonymizer.close()
    path = directory / SNAPSHOT_NAME
    document = json.loads(path.read_bytes()[_HEADER.size :])
    assert "watermarks" not in document
    document["watermarks"] = {"audit_sequence": 2, "releases": 2}
    payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
    path.write_bytes(
        _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(payload), zlib.crc32(payload)
        )
        + payload
    )
    assert read_snapshot(path).lsn == lsn
    with recover(directory).anonymizer as restored:
        assert restored.release(10).digest == digest


def test_snapshot_write_is_atomic(tmp_path, schema3):
    anonymizer = built_anonymizer(schema3, count=100)
    path = tmp_path / "checkpoint.snap"
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=1)
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=2)
    assert read_snapshot(path).lsn == 2
    assert not list(tmp_path.glob("*.tmp"))


def test_missing_snapshot_raises(tmp_path):
    with pytest.raises(SnapshotCorruption, match="unreadable"):
        read_snapshot(tmp_path / "absent.snap")


def test_bit_flip_raises(tmp_path, schema3):
    anonymizer = built_anonymizer(schema3, count=100)
    path = tmp_path / "checkpoint.snap"
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=1)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruption, match="CRC mismatch"):
        read_snapshot(path)


def test_truncation_raises(tmp_path, schema3):
    anonymizer = built_anonymizer(schema3, count=100)
    path = tmp_path / "checkpoint.snap"
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=1)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotCorruption, match="truncated"):
        read_snapshot(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "checkpoint.snap"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(SnapshotCorruption, match="bad magic"):
        read_snapshot(path)


def test_count_mismatch_raises(tmp_path, schema3):
    anonymizer = built_anonymizer(schema3, count=100)
    doc = serialize_tree(anonymizer.tree)
    doc["count"] = 99
    with pytest.raises(ValueError, match="claims 99"):
        restore_tree(doc)


def test_empty_tree_round_trips(tmp_path, schema3):
    table = Table(schema3, ())
    anonymizer = RTreeAnonymizer(table, base_k=5)
    path = tmp_path / "checkpoint.snap"
    write_snapshot(path, tree=anonymizer.tree, schema=schema3, lsn=0)
    snapshot = read_snapshot(path)
    assert len(snapshot.tree) == 0
    assert snapshot.tree.root is None
