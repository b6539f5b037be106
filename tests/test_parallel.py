"""Units of the sharded parallel scan: slice plan, slice sort and merge, obs."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.dataset.io import RecordFileReader, write_table
from repro.dataset.landsend import make_landsend_table
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.index.bulk import DEFAULT_HILBERT_BITS as BITS
from repro.index.hilbert import hilbert_key, quantize
from repro.parallel import effective_pool_size, scan_file_shards, slice_bounds
from tests import oracles
from tests.conftest import random_records

LOWS = (0.0, 0.0, 0.0)
HIGHS = (100.0, 100.0, 100.0)


@pytest.fixture
def force_pool(monkeypatch):
    """Fork one process per slice even on single-CPU machines, so these
    tests genuinely cross the multiprocessing boundary."""
    monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")


@pytest.fixture
def record_file(tmp_path, schema3):
    """Stage records in a binary record file; returns its path."""

    def stage(records: list[Record]) -> str:
        path = str(tmp_path / f"records-{len(records)}.bin")
        write_table(Table(schema3, records), path)
        return path

    return stage


class TestPoolSizing:
    def test_capped_by_cpu_count(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_PARALLEL_POOL", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert effective_pool_size(8, 8) == 2
        assert effective_pool_size(1, 8) == 1
        assert effective_pool_size(8, 1) == 1

    def test_force_overrides_the_cap(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert effective_pool_size(8, 8) == 8
        assert effective_pool_size(8, 3) == 3


class TestPlanner:
    """The slice plan: contiguous, near-equal record-offset slices."""

    def test_single_shard_has_no_boundaries(self, record_file) -> None:
        """One worker is one slice, sorted as is: the oracle's sort."""
        path = record_file(random_records(50))
        assert slice_bounds(50, 1) == [(0, 50)]
        stream = scan_file_shards(path, LOWS, HIGHS)
        expected = list(oracles.read_records(path))
        assert stream == oracles.hilbert_ordered(expected, LOWS, HIGHS)

    def test_plan_balances_records_roughly(self) -> None:
        assert slice_bounds(2_000, 4) == [
            (0, 500), (500, 500), (1_000, 500), (1_500, 500)
        ]
        assert [count for _start, count in slice_bounds(7, 3)] == [3, 2, 2]

    def test_slice_bounds_tile_the_input(self) -> None:
        for total in (0, 1, 7, 100):
            for slices in (1, 2, 3, 8):
                bounds = slice_bounds(total, slices)
                assert bounds[0][0] == 0
                assert sum(count for _start, count in bounds) == total
                for (start, count), (next_start, _next) in zip(
                    bounds, bounds[1:]
                ):
                    assert next_start == start + count

    def test_slice_bounds_never_exceed_total(self) -> None:
        assert slice_bounds(2, 8) == [(0, 1), (1, 1)]
        with pytest.raises(ValueError):
            slice_bounds(10, 0)


class TestScan:
    def test_runs_are_key_sorted_and_rid_tied(self, record_file) -> None:
        path = record_file(random_records(400, seed=13))
        stream = scan_file_shards(path, LOWS, HIGHS, workers=3)
        keyed = [
            (hilbert_key(quantize(r.point, LOWS, HIGHS, BITS), BITS), r.rid)
            for r in stream
        ]
        assert keyed == sorted(keyed)
        assert sorted(r.rid for r in stream) == list(range(400))

    def test_equal_keys_merge_in_rid_order(self, record_file, force_pool) -> None:
        """Equal keys tie across every run; the merge puts them in rid order."""
        records = [Record(rid, (10.0, 10.0, 10.0)) for rid in range(100)]
        stream = scan_file_shards(record_file(records), LOWS, HIGHS, workers=4)
        assert [r.rid for r in stream] == list(range(100))

    def test_stream_is_worker_count_invariant(self, record_file, force_pool) -> None:
        """Every worker count streams the file's global ``(key, rid)``
        order — the scalar oracle's sort of the same records."""
        path = record_file(random_records(500, seed=14))
        expected = [
            r.rid
            for r in oracles.hilbert_ordered(
                list(oracles.read_records(path)), LOWS, HIGHS
            )
        ]
        for workers in (1, 2, 3, 4):
            stream = scan_file_shards(path, LOWS, HIGHS, workers=workers)
            assert [r.rid for r in stream] == expected, (
                f"workers={workers} changed the order"
            )

    def test_zero_workers_rejected(self, record_file) -> None:
        path = record_file(random_records(10))
        with pytest.raises(ValueError):
            scan_file_shards(path, LOWS, HIGHS, workers=0)

    def test_more_workers_than_records(self, record_file) -> None:
        path = record_file(random_records(3, seed=18))
        stream = scan_file_shards(path, LOWS, HIGHS, workers=8)
        assert sorted(r.rid for r in stream) == [0, 1, 2]


class TestEngineEntryPoints:
    def test_bulk_load_counts_and_invariants(self, record_file, schema3) -> None:
        from repro.core.anonymizer import RTreeAnonymizer

        records = random_records(600, seed=19)
        anonymizer = RTreeAnonymizer(Table(schema3, records), base_k=5)
        assert anonymizer.bulk_load_file(record_file(records), workers=2) == 600
        anonymizer.tree.check_invariants()
        assert len(anonymizer.tree) == 600


class TestObservability:
    def teardown_method(self) -> None:
        obs.disable()
        obs.reset()
        obs.TRACE.disable()
        obs.TRACE.reset()

    def test_parallel_counters_recorded(self, record_file) -> None:
        path = record_file(random_records(300, seed=20))
        obs.enable()
        scan_file_shards(path, LOWS, HIGHS, workers=2)
        assert obs.OBS.counter_value("parallel.shards") == 2
        assert obs.OBS.counter_value("parallel.shard_records") == 300
        assert obs.OBS.counter_value("parallel.worker_records") == 300
        assert obs.OBS.gauge_value("parallel.workers") == 2

    def test_worker_spans_merged_into_parent_trace(
        self, record_file, force_pool
    ) -> None:
        path = record_file(random_records(300, seed=21))
        obs.TRACE.enable()
        scan_file_shards(path, LOWS, HIGHS, workers=2)
        names = obs.TRACE.event_names()
        assert "parallel.scan" in names
        assert "parallel.worker" in names
        assert "parallel.merge" in names
        workers = [
            event
            for event in obs.TRACE.events()
            if event.name == "parallel.worker"
        ]
        assert len(workers) == 2
        assert all(event.parent == "parallel.scan" for event in workers)
        assert all(event.duration_us >= 0 for event in workers)

    def test_one_slice_skips_the_merge(self, record_file) -> None:
        path = record_file(random_records(300, seed=22))
        obs.enable()
        obs.TRACE.enable()
        scan_file_shards(path, LOWS, HIGHS, workers=1)
        names = obs.TRACE.event_names()
        assert "parallel.scan" in names
        assert "parallel.merge" not in names
        assert obs.OBS.counter_value("parallel.shards") == 1
        assert obs.OBS.counter_value("parallel.shard_records") == 300

    def test_record_maps_start_onto_trace_clock(self) -> None:
        import time

        obs.TRACE.enable()
        obs.enable()
        with obs.span("parent.span") as parent:
            now = time.perf_counter()
            obs.record("external.work", now, 0.001234, detail=1)
        (event,) = [e for e in obs.TRACE.events() if e.name == "external.work"]
        assert event.duration_us == pytest.approx(1_234.0)
        assert event.parent == "parent.span"
        assert event.args == {"detail": 1}
        # Both events sit on one clock: the record starts inside its parent.
        (outer,) = [e for e in obs.TRACE.events() if e.name == "parent.span"]
        offset_us = (now - parent.start) * 1e6
        assert event.start_us - outer.start_us == pytest.approx(offset_us)
        assert obs.OBS.histogram("external.work_seconds").count == 1  # type: ignore[union-attr]


class TestFileSliceReads:
    def test_iter_records_slice_matches_full_read(self, tmp_path, schema3) -> None:
        records = random_records(100, seed=23)
        path = str(tmp_path / "records.bin")
        write_table(Table(schema3, records), path)
        reader = RecordFileReader(path)
        full = list(reader.iter_records(batch_size=7))
        part = list(reader.iter_records(batch_size=7, start=30, count=40))
        assert [r.rid for r in part] == [r.rid for r in full[30:70]]
        assert [r.point for r in part] == [r.point for r in full[30:70]]

    def test_slice_rids_reflect_file_position(self, tmp_path, schema3) -> None:
        records = random_records(20, seed=24)
        path = str(tmp_path / "records.bin")
        write_table(Table(schema3, records), path)
        reader = RecordFileReader(path)
        sliced = list(reader.iter_records(first_rid=1_000, start=5, count=3))
        assert [r.rid for r in sliced] == [1_005, 1_006, 1_007]

    def test_invalid_slices_rejected(self, tmp_path, schema3) -> None:
        path = str(tmp_path / "records.bin")
        write_table(Table(schema3, random_records(10, seed=25)), path)
        reader = RecordFileReader(path)
        with pytest.raises(ValueError):
            list(reader.iter_records(start=-1))
        with pytest.raises(ValueError):
            list(reader.iter_records(start=5, count=6))


def test_anonymizer_file_load_with_workers(tmp_path, force_pool) -> None:
    """End to end through RTreeAnonymizer.bulk_load_file(workers=N)."""
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.core.partition import release_digest

    table = make_landsend_table(800, seed=2)
    path = str(tmp_path / "landsend.bin")
    write_table(table, path)
    digests = set()
    for workers in (1, 2):
        anonymizer = RTreeAnonymizer(table, base_k=5)
        assert anonymizer.bulk_load_file(path, workers=workers) == 800
        digests.add(release_digest(anonymizer.anonymize(5)))
    assert len(digests) == 1
