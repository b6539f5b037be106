"""The sharded parallel bulk-anonymization engine.

The pipeline has three stages, mirroring the serial Hilbert loader
(:mod:`repro.index.bulk`) stage for stage:

1. **Plan** (:mod:`repro.parallel.planner`): a sampled key-quantile pass
   splits the key space into ``P`` contiguous Hilbert-key ranges.
2. **Scan** (`multiprocessing` worker pool): each worker streams one
   contiguous *file slice* through :class:`~repro.dataset.io.RecordFileReader`
   offsets (no slice is ever materialized in the parent), computes every
   record's Hilbert key, range-partitions its slice across the ``P``
   shards, and sorts each sub-run by ``(key, rid)``.  Keying and sorting —
   the per-record heavy lifting of a Hilbert bulk load — thus parallelize
   across all workers.
3. **Stitch**: the parent merges each shard's sub-runs (cheap ``O(N log P)``
   heap merge over pre-computed keys) and consumes the shards in key
   order.  For partitions, :func:`stitched_chunks` performs the
   boundary-repair pass: chunk boundaries are kept aligned to the *global*
   2k grid, so the ≤2k records straddling each shard seam are re-chunked
   across the seam and the k-floor invariant holds globally.  For a live
   index, the shards stream — in key order, shard subtree by shard
   subtree — through one :class:`~repro.index.buffer_tree.BufferTreeLoader`
   call into a shared tree.

**Determinism guarantee.**  For a fixed input and quantization the output
is bit-for-bit identical to the serial ``hilbert_bulk_load`` /
``hilbert_partitions`` baseline *regardless of the worker count or the
shard boundaries*: the merged shard runs, keyed and tie-broken by
``(key, rid)``, reconstruct exactly the one global Hilbert order the
serial path sorts into, and everything downstream (the seam-repaired
chunking, the buffer-tree replay) is a deterministic function of that
order.  This is what the serial/parallel differential suite asserts —
leaf for leaf, region for region, release for release.

Why the parent replays the tree build rather than stitching worker-built
subtrees under a shared root: Hilbert-key shard seams are not axis-aligned
(a contiguous key range is a union of curve cells, not a box), so
independently built R⁺-subtrees could never be joined by the binary-cut
machinery without violating the disjoint-region invariant — nor could they
reproduce the serial tree's cuts.  Shipping the *sorted runs* back instead
keeps the structural pass byte-identical to the serial algorithm while the
per-record work (keying, sorting — the measured majority of a pure-Python
Hilbert load) runs fan-out.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.record import Record
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.index.rtree import RPlusTree
from repro.kernels.hilbert import hilbert_keys_for_points
from repro import obs
from repro.obs import OBS, TRACE, span
from repro.parallel.planner import (
    DEFAULT_SAMPLE_SIZE,
    ShardPlan,
    plan_file_shards,
    plan_record_shards,
    slice_bounds,
)

#: A worker's output for one (slice, shard) cell: (key, record) pairs
#: sorted by (key, rid).
_SubRun = list[tuple[int, Record]]


@dataclass
class ShardRun:
    """One shard's records, merged across workers, in global Hilbert order."""

    index: int
    records: list[Record]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class ShardScan:
    """The full scan result: the plan, the per-shard runs, worker stats."""

    plan: ShardPlan
    runs: list[ShardRun] = field(default_factory=list)
    worker_stats: list[dict[str, object]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(len(run) for run in self.runs)


# -- worker side ------------------------------------------------------------


def _scan_slice(task: tuple) -> tuple[list[_SubRun], dict[str, object]]:
    """One worker's job: stream a slice, key, range-partition, sort.

    Module-level so it pickles under every multiprocessing start method.
    ``task`` is (source kind, payload, boundaries, lows, highs, bits) where
    a ``"file"`` payload is (path, start, count, first_rid, batch_size) —
    the worker opens its own reader and streams the slice by record
    offsets, one decoded page at a time — and a ``"records"`` payload is
    the slice itself.  Each page is keyed by the batch Hilbert kernel and
    bucketed by ``np.searchsorted(..., side="right")``, which is
    ``bisect_right`` over the plan's boundaries.
    """
    started = time.perf_counter()
    kind, payload, boundaries, lows, highs, bits = task
    buckets: list[_SubRun] = [[] for _ in range(len(boundaries) + 1)]
    scanned = 0

    def bucket_batch(
        points: np.ndarray, rid_of: "list[int] | range", records: "list[Record] | None"
    ) -> None:
        nonlocal scanned
        if points.shape[0] == 0:
            return
        keys = hilbert_keys_for_points(points, lows, highs, bits)
        if boundaries:
            # Keep the comparison in exact integer arithmetic: uint64 keys
            # search uint64 boundaries; >64-bit keys (object arrays of
            # Python ints) search an object boundary array.
            if keys.dtype == np.uint64:
                edges = np.asarray(boundaries, dtype=np.uint64)
            else:
                edges = np.array(boundaries, dtype=object)
            shard_of = np.searchsorted(edges, keys, side="right").tolist()
        else:
            shard_of = [0] * points.shape[0]
        key_list = keys.tolist()
        if records is None:
            rows = points.tolist()
            for offset, (key, shard) in enumerate(zip(key_list, shard_of)):
                buckets[shard].append(
                    (key, Record(rid_of[offset], tuple(rows[offset])))
                )
        else:
            for key, shard, record in zip(key_list, shard_of, records):
                buckets[shard].append((key, record))
        scanned += points.shape[0]

    if kind == "file":
        from repro.dataset.io import RecordFileReader

        path, start, count, first_rid, batch_size = payload
        reader = RecordFileReader(path)
        for position, points in reader.iter_point_batches(
            batch_size, start=start, count=count
        ):
            bucket_batch(
                points,
                range(first_rid + position, first_rid + position + points.shape[0]),
                None,
            )
    else:
        records = list(payload)
        if records:
            points = np.array(
                [record.point for record in records], dtype=np.float64
            )
            bucket_batch(points, [], records)
    for bucket in buckets:
        bucket.sort(key=lambda pair: (pair[0], pair[1].rid))
    stats: dict[str, object] = {
        "records": scanned,
        "per_shard": [len(bucket) for bucket in buckets],
        "seconds": time.perf_counter() - started,
    }
    return buckets, stats


def _mp_context():
    """Fork when the platform offers it (cheap), spawn otherwise."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def effective_pool_size(workers: int, tasks: int) -> int:
    """How many worker processes to actually fork.

    Capped at the machine's CPU count: the slices are CPU-bound, so a pool
    wider than the hardware only time-shares one core and pays fork,
    pickle and scheduling overhead for nothing — ``workers`` still sets
    the slice/shard layout (and therefore nothing about the output, which
    is identical for every worker count), only the process fan-out is
    clamped.  Set ``REPRO_PARALLEL_POOL=force`` to fork one process per
    slice regardless (the test suite uses this to exercise the
    multiprocessing path even on single-CPU machines).
    """
    import os

    if os.environ.get("REPRO_PARALLEL_POOL") == "force":
        return min(workers, tasks)
    return min(workers, tasks, os.cpu_count() or 1)


def _run_slices(
    tasks: list[tuple], workers: int
) -> list[tuple[list[_SubRun], dict[str, object]]]:
    """Run the slice scans — pooled, or in-process when a pool cannot help."""
    size = effective_pool_size(workers, len(tasks))
    if size <= 1:
        return [_scan_slice(task) for task in tasks]
    with _mp_context().Pool(size) as pool:
        return pool.map(_scan_slice, tasks)


# -- parent side ------------------------------------------------------------


def _scan_slices(
    tasks: list[tuple], workers: int, records: int
) -> list[tuple[list[_SubRun], dict[str, object]]]:
    """Run the slice scans under one ``parallel.scan`` span.

    Each worker's own scan time comes back in its stats and is reported
    as a ``parallel.worker`` span under the scan, starting at dispatch.
    """
    if OBS.enabled:
        OBS.gauge("parallel.workers", workers)
    with span("parallel.scan", workers=workers, records=records) as scan:
        results = _run_slices(tasks, workers)
        for index, (_buckets, stats) in enumerate(results):
            stats["slice"] = index
            obs.record(
                "parallel.worker",
                scan.start,
                stats["seconds"],  # type: ignore[arg-type]
                slice=index,
                records=stats["records"],
            )
            if OBS.enabled:
                OBS.count("parallel.worker_records", int(stats["records"]))  # type: ignore[arg-type]
    return results


def _merge(
    plan: ShardPlan, results: list[tuple[list[_SubRun], dict[str, object]]]
) -> ShardScan:
    """Merge per-worker sub-runs into shard runs."""
    scan = ShardScan(plan)
    scan.worker_stats.extend(stats for _buckets, stats in results)
    for shard in range(plan.shard_count):
        with span("parallel.shard_merge", shard=shard):
            merged = heapq.merge(
                *(buckets[shard] for buckets, _stats in results),
                key=lambda pair: (pair[0], pair[1].rid),
            )
            records = [record for _key, record in merged]
        if OBS.enabled:
            OBS.count("parallel.shards")
            OBS.count("parallel.shard_records", len(records))
        scan.runs.append(ShardRun(shard, records))
    return scan


def scan_file_shards(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    workers: int = 1,
    shards: int | None = None,
    bits: int = DEFAULT_HILBERT_BITS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    batch_size: int = 8_192,
    first_rid: int = 0,
    plan: ShardPlan | None = None,
) -> ShardScan:
    """Plan and scan a record file into sorted shard runs.

    Workers stream disjoint record-offset slices of the file themselves —
    the parent never reads the input, only the workers' sorted runs.
    """
    from repro.dataset.io import RecordFileReader

    if workers < 1:
        raise ValueError("workers must be at least 1")
    reader = RecordFileReader(path)
    if plan is None:
        with span("parallel.plan", shards=shards or workers):
            plan = plan_file_shards(
                path,
                shards if shards is not None else workers,
                lows,
                highs,
                bits,
                sample_size,
                batch_size,
            )
    tasks = [
        (
            "file",
            (str(path), start, count, first_rid, batch_size),
            plan.boundaries,
            plan.lows,
            plan.highs,
            plan.bits,
        )
        for start, count in slice_bounds(len(reader), workers)
    ]
    return _merge(plan, _scan_slices(tasks, workers, len(reader)))


def scan_record_shards(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    workers: int = 1,
    shards: int | None = None,
    bits: int = DEFAULT_HILBERT_BITS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    plan: ShardPlan | None = None,
) -> ShardScan:
    """In-memory counterpart of :func:`scan_file_shards`.

    Worker slices are shipped by pickle instead of streamed by offset; the
    output contract (and the determinism guarantee) is identical, which is
    what lets the differential suite compare against serial baselines built
    from the very same record objects.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if plan is None:
        with span("parallel.plan", shards=shards or workers):
            plan = plan_record_shards(
                records,
                shards if shards is not None else workers,
                lows,
                highs,
                bits,
                sample_size,
            )
    tasks = [
        (
            "records",
            list(records[start : start + count]),
            plan.boundaries,
            plan.lows,
            plan.highs,
            plan.bits,
        )
        for start, count in slice_bounds(len(records), workers)
    ]
    return _merge(plan, _scan_slices(tasks, workers, len(records)))


# -- stitching --------------------------------------------------------------


def shard_record_stream(runs: Iterable[ShardRun]) -> Iterator[Record]:
    """The shards flattened back into one global Hilbert-ordered stream.

    Because the shards hold contiguous, ascending key ranges, concatenating
    their merged runs *is* the global ``(key, rid)`` sort — the stream the
    serial loader would have produced.
    """
    for run in runs:
        if TRACE.enabled:
            TRACE.instant(
                "parallel.shard_stream", shard=run.index, records=len(run)
            )
        yield from run.records


def stitched_chunks(
    runs: Iterable[ShardRun], k: int
) -> Iterator[list[Record]]:
    """Chunk the shard runs into ~2k groups with cross-seam boundary repair.

    Chunk boundaries stay aligned to the *global* 2k grid: the ≤2k records
    straddling each shard seam are carried across it and re-chunked
    together with the next shard's head, so the result is exactly the
    serial :func:`repro.index.bulk.chunk_with_floor` grouping of the
    concatenated runs — every group holds at least ``k`` records (the
    k-floor), with an undersized global tail merged into the final full
    group.  Raises ``ValueError`` when the whole input holds fewer than
    ``k`` records, matching the serial path.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    size = 2 * k
    held: list[Record] | None = None  # the last complete chunk, unreleased
    current: list[Record] = []
    total = 0
    for run in runs:
        straddling = len(current)
        if straddling:
            if TRACE.enabled:
                TRACE.instant(
                    "parallel.seam_repair", shard=run.index, straddling=straddling
                )
            if OBS.enabled:
                OBS.count("parallel.seam_records", straddling)
        for record in run.records:
            current.append(record)
            total += 1
            if len(current) == size:
                if held is not None:
                    yield held
                held = current
                current = []
    if total < k:
        raise ValueError(
            f"cannot form k-anonymous groups: {total} records < k={k}"
        )
    if current:
        if len(current) >= k:
            if held is not None:
                yield held
            held = current
        else:
            # The global tail is under the k-floor: merge it into the last
            # full chunk (held is non-None here, else total < k above).
            held = held + current  # type: ignore[operator]
    if held is not None:
        yield held


# -- public entry points ----------------------------------------------------


def parallel_hilbert_partitions(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    k: int,
    workers: int = 1,
    shards: int | None = None,
    bits: int = DEFAULT_HILBERT_BITS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> list[list[Record]]:
    """Sharded counterpart of :func:`repro.index.bulk.hilbert_partitions`.

    Equal to the serial grouping for any worker count (the differential
    suite asserts this record for record).
    """
    with span("parallel.partitions", records=len(records), workers=workers):
        scan = scan_record_shards(
            records, lows, highs, workers, shards, bits, sample_size
        )
        return list(stitched_chunks(scan.runs, k))


def parallel_bulk_load(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    k: int,
    workers: int = 1,
    shards: int | None = None,
    bits: int = DEFAULT_HILBERT_BITS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    **tree_kwargs: object,
) -> RPlusTree:
    """Sharded counterpart of :func:`repro.index.bulk.hilbert_bulk_load`.

    Workers shard-sort; the parent replays the buffer-tree loader over the
    stitched stream in one call, so the resulting tree is *structurally
    identical* to the serial build — same cuts, same leaves, same regions.
    """
    with span("parallel.bulk_load", records=len(records), workers=workers):
        scan = scan_record_shards(
            records, lows, highs, workers, shards, bits, sample_size
        )
        tree = RPlusTree(len(lows), k, **tree_kwargs)  # type: ignore[arg-type]
        BufferTreeLoader(tree).load(
            shard_record_stream(scan.runs), charge_input=False
        )
        return tree


def parallel_bulk_load_file(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    k: int,
    workers: int = 1,
    shards: int | None = None,
    bits: int = DEFAULT_HILBERT_BITS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    batch_size: int = 8_192,
    first_rid: int = 0,
    **tree_kwargs: object,
) -> RPlusTree:
    """Build an R⁺-tree from a record file with a sharded worker pool."""
    with span("parallel.bulk_load_file", path=str(path), workers=workers):
        scan = scan_file_shards(
            path,
            lows,
            highs,
            workers,
            shards,
            bits,
            sample_size,
            batch_size,
            first_rid,
        )
        tree = RPlusTree(len(lows), k, **tree_kwargs)  # type: ignore[arg-type]
        BufferTreeLoader(tree).load(
            shard_record_stream(scan.runs), charge_input=False
        )
        return tree
