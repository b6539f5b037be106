"""The repro.api facade: open/load/release/recover, typed results."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.dataset.io import RecordFileWriter
from repro.dataset.record import Record
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, RecoveryError
from tests.conftest import random_records


def staged_file(tmp_path, points):
    path = tmp_path / "data.bin"
    with RecordFileWriter(path, len(points[0])) as writer:
        writer.write_all(points)
    return path


def test_open_accepts_schema(schema3):
    handle = api.open(schema3, base_k=5)
    assert handle.schema is schema3
    assert handle.base_k == 5
    assert len(handle) == 0
    assert not handle.durable


def test_open_accepts_table_without_loading(schema3):
    table = Table(schema3, tuple(random_records(50, seed=1)))
    handle = api.open(table, base_k=5)
    assert len(handle) == 0  # open never ingests
    assert handle.load(table) == 50
    assert len(handle) == 50


def test_open_synthesizes_schema_from_file(tmp_path):
    points = [(float(i), float(100 - i)) for i in range(50)]
    path = staged_file(tmp_path, points)
    handle = api.open(path, base_k=5)
    lows = handle.schema.domain_lows()
    highs = handle.schema.domain_highs()
    assert lows == (0.0, 51.0)
    assert highs == (49.0, 100.0)
    assert handle.load(path) == 50


def test_open_rejects_other_types():
    with pytest.raises(TypeError, match="cannot open"):
        api.open(42)


def test_release_result_carries_audit_and_digest(schema3):
    table = Table(schema3, tuple(random_records(200, seed=2)))
    handle = api.open(table, base_k=5)
    handle.load(table)
    result = handle.release(k=10)
    assert isinstance(result, api.Release)
    assert result.k == 10
    assert result.strategy == "subtree"
    assert result.epoch is None  # only a service stamps an epoch
    assert result.record_count == 200
    assert result.partition_count > 1
    assert result.k_satisfied
    assert result.audit["k_requested"] == 10
    assert len(result.digest) == 64
    # Same state, same release => same digest.
    assert handle.release(k=10).digest == result.digest


def test_release_audit_goes_through_global_auditor_when_enabled(schema3):
    from repro import obs

    table = Table(schema3, tuple(random_records(100, seed=3)))
    handle = api.open(table, base_k=5)
    handle.load(table)
    obs.AUDITOR.enable(reset=True)
    try:
        result = handle.release(k=5)
        assert obs.AUDITOR.latest is result.audit
        assert len(obs.AUDITOR.records) == 1
    finally:
        obs.AUDITOR.disable()


def test_release_composes_constraint_sequences(schema3):
    """``release`` takes one constraint; a caller composes several itself."""
    table = Table(schema3, tuple(random_records(200, seed=2)))
    handle = api.open(table, base_k=5)
    handle.load(table)
    seen: list[str] = []

    def first(records):
        seen.append("first")
        return len(records) < 40

    def second(records):
        seen.append("second")
        return True

    def both(records):
        return first(records) and second(records)

    result = handle.release(5, constraint=both)
    assert max(len(p) for p in result.table.partitions) < 40
    assert "first" in seen and "second" in seen


def test_load_rejects_workers_for_in_memory_sources(schema3):
    table = Table(schema3, tuple(random_records(50, seed=1)))
    handle = api.open(table, base_k=5)
    with pytest.raises(ValueError, match="file sources"):
        handle.load(table, workers=2)


def test_service_load_rejects_workers_for_in_memory_sources(schema3):
    """Both handles share one load dispatch: no silent serial fallback."""
    table = Table(schema3, tuple(random_records(50, seed=1)))
    with api.serve(table, base_k=5) as service:
        with pytest.raises(ValueError, match="file sources"):
            service.load(table, workers=2)
        assert len(service) == 0
        assert service.load(table) == 50


def test_incremental_ops_round_trip(schema3):
    table = Table(schema3, tuple(random_records(100, seed=5)))
    handle = api.open(table, base_k=5)
    handle.load(table)
    extra = random_records(120, seed=5)[100:]
    handle.insert(extra[0])
    handle.insert_batch(extra[1:])
    removed = handle.delete(3, table.records[3].point)
    assert removed.rid == 3
    handle.update(7, table.records[7].point, Record(7, (1.0, 2.0, 3.0), ("flu",)))
    assert len(handle) == 119
    handle.engine.tree.check_invariants()


def test_durable_open_checkpoint_recover(tmp_path, schema3):
    table = Table(schema3, tuple(random_records(150, seed=6)))
    directory = tmp_path / "state"
    with api.open(
        schema3, base_k=5, durability=DurabilityConfig(directory)
    ) as handle:
        handle.load(table)
        digest = handle.release(k=5).digest
        checkpoint = handle.checkpoint()
        assert checkpoint.lsn == 151
        assert checkpoint.directory == directory

    recovered = api.recover(directory)
    assert recovered.recovery is not None
    assert recovered.recovery.snapshot_lsn == checkpoint.lsn
    assert recovered.release(k=5).digest == digest
    recovered.close()


def test_recover_propagates_corruption(tmp_path, schema3):
    directory = tmp_path / "state"
    with api.open(
        schema3, base_k=5, durability=DurabilityConfig(directory)
    ) as handle:
        handle.load(Table(schema3, tuple(random_records(60, seed=6))))
    data = bytearray((directory / "wal.log").read_bytes())
    data[30] ^= 0x20
    (directory / "wal.log").write_bytes(bytes(data))
    with pytest.raises(RecoveryError):
        api.recover(directory)


def test_checkpoint_without_durability_raises(schema3):
    handle = api.open(schema3, base_k=5)
    with pytest.raises(ValueError, match="no durability"):
        handle.checkpoint()


def test_facade_is_reexported_from_package_root():
    assert repro.api is api
    assert repro.Release is api.Release
    assert repro.Anonymizer is api.Anonymizer
    assert repro.DurabilityConfig is DurabilityConfig
    assert repro.RecoveryError is RecoveryError
