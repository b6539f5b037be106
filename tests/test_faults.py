"""Fault injection: the crash-at-any-LSN property and corruption detection."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, RecoveryError, recover
from repro.durability.faults import (
    CORRUPTION_FAULTS,
    clone_state,
    flip_bit,
    frame_boundaries,
    kill_at_lsn,
    run_fault_grid,
    tear_final_frame,
    truncate_tail,
)
from tests.conftest import random_records


def durable_state(tmp_path, schema3, count: int = 120):
    directory = tmp_path / "state"
    table = Table(schema3, tuple(random_records(count, seed=11)))
    anonymizer = RTreeAnonymizer(
        table, base_k=5, durability=DurabilityConfig(directory)
    )
    anonymizer.bulk_load(table)
    for record in random_records(140, seed=11)[count:]:
        anonymizer.insert(record)
    anonymizer.close()
    return directory, anonymizer


def test_kill_at_lsn_truncates_to_frame_boundary(tmp_path, schema3):
    directory, _ = durable_state(tmp_path, schema3)
    boundaries = frame_boundaries(directory)
    mid_lsn, mid_offset = boundaries[len(boundaries) // 2]
    clone = clone_state(directory, tmp_path / "clone")
    kill_at_lsn(clone, mid_lsn)
    assert (clone / "wal.log").stat().st_size == mid_offset
    result = recover(clone)
    result.anonymizer.close()
    assert result.last_lsn == mid_lsn


def test_kill_at_unknown_lsn_is_rejected(tmp_path, schema3):
    directory, _ = durable_state(tmp_path, schema3)
    with pytest.raises(ValueError, match="not a kill point"):
        kill_at_lsn(directory, 10_000)


def test_every_corruption_fault_raises(tmp_path, schema3):
    directory, _ = durable_state(tmp_path, schema3)
    injectors = {
        "torn-write": tear_final_frame,
        "truncated-tail": lambda d: truncate_tail(d, 5),
        "bit-flip-wal": lambda d: flip_bit(d, target="wal"),
        "bit-flip-snapshot": lambda d: flip_bit(d, target="snapshot"),
    }
    assert set(injectors) == set(CORRUPTION_FAULTS)
    for fault, inject in injectors.items():
        clone = clone_state(directory, tmp_path / f"clone-{fault}")
        inject(clone)
        with pytest.raises(RecoveryError):
            recover(clone)


def test_torn_tail_opt_out_recovers_prefix(tmp_path, schema3):
    directory, _ = durable_state(tmp_path, schema3)
    reference = recover(directory, reattach=False)
    clone = clone_state(directory, tmp_path / "clone")
    tear_final_frame(clone)
    result = recover(clone, allow_torn_tail=True)
    with closing(result.anonymizer) as restored:
        # Exactly the final acknowledged-but-torn op is missing.
        assert len(restored) == len(reference.anonymizer) - 1
    assert result.last_lsn == reference.last_lsn - 1


def test_fault_grid_without_checkpoint(tmp_path):
    report = run_fault_grid(tmp_path / "grid", records=24, k=5, seed=7)
    assert report.ok, report.render()
    assert report.kill_points > 20  # start LSN + every frame boundary
    faults = {cell.fault for cell in report.cells}
    assert set(CORRUPTION_FAULTS) <= faults


def test_fault_grid_with_mid_workload_checkpoint(tmp_path):
    report = run_fault_grid(
        tmp_path / "grid", records=24, k=5, seed=7, checkpoint_after_op=0
    )
    assert report.ok, report.render()
    # After the checkpoint the WAL rotates: far fewer live kill points.
    assert 0 < report.kill_points < 24


def test_grid_digest_is_deterministic(tmp_path):
    first = run_fault_grid(tmp_path / "one", records=24, k=5, seed=7)
    second = run_fault_grid(tmp_path / "two", records=24, k=5, seed=7)
    assert first.reference_digest == second.reference_digest


def test_release_digest_differs_across_seeds(tmp_path):
    first = run_fault_grid(tmp_path / "one", records=24, k=5, seed=7)
    second = run_fault_grid(tmp_path / "two", records=24, k=5, seed=8)
    assert first.reference_digest != second.reference_digest
