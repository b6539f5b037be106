"""Units of the sharded parallel engine: planner, stitcher, scan, obs."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dataset.io import RecordFileReader, write_table
from repro.dataset.landsend import make_landsend_table
from repro.index.bulk import DEFAULT_HILBERT_BITS, chunk_with_floor
from repro.parallel import (
    ShardRun,
    effective_pool_size,
    parallel_bulk_load,
    parallel_hilbert_partitions,
    plan_from_sample,
    plan_record_shards,
    scan_file_shards,
    scan_record_shards,
    shard_record_stream,
    slice_bounds,
    stitched_chunks,
)
from tests.conftest import random_records

LOWS = (0.0, 0.0, 0.0)
HIGHS = (100.0, 100.0, 100.0)


@pytest.fixture
def force_pool(monkeypatch):
    """Fork one process per slice even on single-CPU machines, so these
    tests genuinely cross the multiprocessing boundary."""
    monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")


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
    def test_single_shard_has_no_boundaries(self) -> None:
        plan = plan_record_shards(random_records(50), 1, LOWS, HIGHS, 10)
        assert plan.shard_count == 1
        assert plan.boundaries == ()
        assert plan.shard_of(0) == 0

    def test_boundaries_are_sample_quantiles(self) -> None:
        plan = plan_from_sample(list(range(100)), 4, LOWS, HIGHS, 10)
        assert plan.boundaries == (25, 50, 75)
        assert [plan.shard_of(key) for key in (0, 24, 25, 60, 99)] == [
            0,
            0,
            1,
            2,
            3,
        ]

    def test_equal_keys_land_in_one_shard(self) -> None:
        """A key equal to a boundary goes right — ties never split a key
        across shards, which the merge-order proof relies on."""
        plan = plan_from_sample([10] * 100, 4, LOWS, HIGHS, 10)
        shard = plan.shard_of(10)
        assert all(plan.shard_of(10) == shard for _ in range(5))

    def test_plan_balances_records_roughly(self) -> None:
        records = random_records(2_000, seed=3)
        plan = plan_record_shards(records, 4, LOWS, HIGHS, DEFAULT_HILBERT_BITS)
        counts = [0] * plan.shard_count
        for record in records:
            counts[plan.shard_of(plan.key_of(record.point))] += 1
        assert sum(counts) == 2_000
        # Quantile planning keeps every shard within ~2x of fair share.
        assert max(counts) <= 2 * (2_000 // 4)

    def test_zero_shards_rejected(self) -> None:
        with pytest.raises(ValueError):
            plan_from_sample([1, 2, 3], 0, LOWS, HIGHS, 10)

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


class TestStitchedChunks:
    def _runs(self, records, cuts) -> list[ShardRun]:
        """Split a record list into ShardRuns at the given positions."""
        positions = [0, *cuts, len(records)]
        return [
            ShardRun(index, list(records[a:b]))
            for index, (a, b) in enumerate(zip(positions, positions[1:]))
        ]

    @given(
        st.integers(1, 12),
        st.integers(0, 150),
        st.lists(st.integers(0, 150), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_serial_chunker_for_any_seams(
        self, k: int, count: int, raw_cuts: list[int]
    ) -> None:
        """The seam-repaired chunking of any shard split equals the global
        chunking of the concatenation — the boundary-repair guarantee."""
        records = random_records(count, seed=11)
        cuts = sorted(min(cut, count) for cut in raw_cuts)
        runs = self._runs(records, cuts)
        if count < k:
            with pytest.raises(ValueError):
                list(stitched_chunks(runs, k))
            return
        assert list(stitched_chunks(runs, k)) == chunk_with_floor(records, k)

    def test_straddling_records_bounded_by_2k(self) -> None:
        """At most 2k-1 records are ever carried across a seam: the carry
        is the residue of the records so far modulo the 2k chunk size."""
        k = 7
        records = random_records(100, seed=12)
        runs = self._runs(records, [33, 66])
        consumed = 0
        for run in runs[:-1]:
            consumed += len(run.records)
            assert consumed % (2 * k) < 2 * k
        assert list(stitched_chunks(runs, k)) == chunk_with_floor(records, k)

    def test_nonpositive_k_rejected(self) -> None:
        with pytest.raises(ValueError):
            list(stitched_chunks([ShardRun(0, random_records(5))], 0))


class TestScan:
    def test_runs_are_key_sorted_and_rid_tied(self) -> None:
        records = random_records(400, seed=13)
        scan = scan_record_shards(records, LOWS, HIGHS, workers=1, shards=3)
        plan = scan.plan
        seen = []
        for run in scan.runs:
            keyed = [(plan.key_of(r.point), r.rid) for r in run.records]
            assert keyed == sorted(keyed)
            for key, _rid in keyed:
                assert plan.shard_of(key) == run.index
            seen.extend(r.rid for r in run.records)
        assert sorted(seen) == [r.rid for r in records]
        assert scan.total == 400

    def test_stream_is_worker_count_invariant(self, force_pool) -> None:
        records = random_records(500, seed=14)
        reference = None
        for workers in (1, 2, 3, 4):
            scan = scan_record_shards(records, LOWS, HIGHS, workers=workers)
            stream = [r.rid for r in shard_record_stream(scan.runs)]
            if reference is None:
                reference = stream
            assert stream == reference, f"workers={workers} changed the order"

    def test_shard_count_independent_of_workers(self) -> None:
        records = random_records(300, seed=15)
        four = scan_record_shards(records, LOWS, HIGHS, workers=1, shards=4)
        pooled = scan_record_shards(records, LOWS, HIGHS, workers=2, shards=4)
        assert [run.records for run in four.runs] == [
            run.records for run in pooled.runs
        ]

    def test_file_scan_matches_record_scan(self, tmp_path, schema3, force_pool) -> None:
        from repro.dataset.table import Table

        records = random_records(350, seed=16)
        table = Table(schema3, records)
        path = str(tmp_path / "records.bin")
        write_table(table, path)
        from_file = scan_file_shards(path, LOWS, HIGHS, workers=2, shards=3)
        in_memory = scan_record_shards(records, LOWS, HIGHS, workers=2, shards=3)
        assert [[r.rid for r in run.records] for run in from_file.runs] == [
            [r.rid for r in run.records] for run in in_memory.runs
        ]

    def test_worker_stats_cover_every_record(self) -> None:
        records = random_records(200, seed=17)
        scan = scan_record_shards(records, LOWS, HIGHS, workers=2)
        assert sum(int(s["records"]) for s in scan.worker_stats) == 200
        assert all(float(s["seconds"]) >= 0 for s in scan.worker_stats)

    def test_zero_workers_rejected(self) -> None:
        with pytest.raises(ValueError):
            scan_record_shards(random_records(10), LOWS, HIGHS, workers=0)

    def test_more_workers_than_records(self) -> None:
        records = random_records(3, seed=18)
        scan = scan_record_shards(records, LOWS, HIGHS, workers=8)
        assert scan.total == 3
        assert sorted(r.rid for r in shard_record_stream(scan.runs)) == [0, 1, 2]


class TestEngineEntryPoints:
    def test_partitions_raise_below_k(self) -> None:
        with pytest.raises(ValueError, match="records < k"):
            parallel_hilbert_partitions(
                random_records(4), LOWS, HIGHS, k=5, workers=2
            )

    def test_bulk_load_counts_and_invariants(self) -> None:
        records = random_records(600, seed=19)
        tree = parallel_bulk_load(
            records,
            LOWS,
            HIGHS,
            k=5,
            workers=2,
            domain_extents=(100.0,) * 3,
        )
        tree.check_invariants()
        assert len(tree) == 600


class TestObservability:
    def teardown_method(self) -> None:
        obs.disable()
        obs.reset()
        obs.TRACE.disable()
        obs.TRACE.reset()

    def test_parallel_counters_recorded(self) -> None:
        obs.enable()
        records = random_records(300, seed=20)
        scan_record_shards(records, LOWS, HIGHS, workers=2, shards=2)
        assert obs.OBS.counter_value("parallel.shards") == 2
        assert obs.OBS.counter_value("parallel.shard_records") == 300
        assert obs.OBS.counter_value("parallel.worker_records") == 300
        assert obs.OBS.gauge_value("parallel.workers") == 2

    def test_worker_spans_merged_into_parent_trace(self, force_pool) -> None:
        obs.TRACE.enable()
        records = random_records(300, seed=21)
        scan_record_shards(records, LOWS, HIGHS, workers=2)
        names = obs.TRACE.event_names()
        assert "parallel.plan" in names
        assert "parallel.scan" in names
        assert "parallel.worker" in names
        assert "parallel.shard_merge" in names
        workers = [
            event
            for event in obs.TRACE.events()
            if event.name == "parallel.worker"
        ]
        assert len(workers) == 2
        assert all(event.parent == "parallel.scan" for event in workers)
        assert all(event.duration_us >= 0 for event in workers)

    def test_seam_repair_traced(self) -> None:
        obs.TRACE.enable()
        obs.enable()
        records = random_records(301, seed=22)
        parallel_hilbert_partitions(records, LOWS, HIGHS, k=5, workers=3)
        if obs.OBS.counter_value("parallel.seam_records"):
            assert "parallel.seam_repair" in obs.TRACE.event_names()

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
        from repro.dataset.table import Table

        records = random_records(100, seed=23)
        path = str(tmp_path / "records.bin")
        write_table(Table(schema3, records), path)
        reader = RecordFileReader(path)
        full = list(reader.iter_records(batch_size=7))
        part = list(reader.iter_records(batch_size=7, start=30, count=40))
        assert [r.rid for r in part] == [r.rid for r in full[30:70]]
        assert [r.point for r in part] == [r.point for r in full[30:70]]

    def test_slice_rids_reflect_file_position(self, tmp_path, schema3) -> None:
        from repro.dataset.table import Table

        records = random_records(20, seed=24)
        path = str(tmp_path / "records.bin")
        write_table(Table(schema3, records), path)
        reader = RecordFileReader(path)
        sliced = list(reader.iter_records(first_rid=1_000, start=5, count=3))
        assert [r.rid for r in sliced] == [1_005, 1_006, 1_007]

    def test_invalid_slices_rejected(self, tmp_path, schema3) -> None:
        from repro.dataset.table import Table

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
