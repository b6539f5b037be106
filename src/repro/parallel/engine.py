"""The sharded parallel scan behind ``RTreeAnonymizer.bulk_load_file(workers=N)``.

The pipeline has three stages:

1. **Plan** (:mod:`repro.parallel.planner`): a sampled key-quantile pass
   splits the key space into ``P`` contiguous Hilbert-key ranges, one per
   worker.
2. **Scan** (`multiprocessing` worker pool): each worker streams one
   contiguous *file slice* through :class:`~repro.dataset.io.RecordFileReader`
   offsets (no slice is ever materialized in the parent), computes every
   record's Hilbert key, range-partitions its slice across the ``P``
   shards, and sorts each sub-run by ``(key, rid)``.  Keying and sorting —
   the per-record heavy lifting of a Hilbert-ordered load — thus
   parallelize across all workers.
3. **Merge**: the parent merges each shard's sub-runs (cheap ``O(N log P)``
   heap merge over pre-computed keys).  :func:`shard_record_stream` then
   concatenates the shards in key order, and the anonymizer feeds that one
   stream through its buffer-tree loader.  The loader needs no seam repair:
   it sees one global stream, and the tree's leaf floor gives k.

**Determinism guarantee.**  For a fixed input the stream is the one global
``(key, rid)`` order — what :func:`repro.index.bulk.hilbert_ordered` sorts
the same records into — *regardless of the worker count or the shard
boundaries*, because each shard holds a contiguous key range and ties
never straddle a boundary.  The loaded tree is a deterministic function of
that stream, so it is identical for every worker count; the
serial/parallel differential suite asserts this leaf for leaf and release
for release.

Why the parent replays the tree build rather than stitching worker-built
subtrees under a shared root: Hilbert-key shard seams are not axis-aligned
(a contiguous key range is a union of curve cells, not a box), so
independently built R⁺-subtrees could never be joined by the binary-cut
machinery without violating the disjoint-region invariant.  Shipping the
*sorted runs* back instead keeps the structural pass serial while the
per-record work (keying, sorting) runs fan-out.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.record import Record
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.kernels.hilbert import hilbert_keys_for_points
from repro import obs
from repro.obs import OBS, TRACE, span
from repro.parallel.planner import (
    ShardPlan,
    plan_file_shards,
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
    """One worker's job: stream a file slice, key, range-partition, sort.

    Module-level so it pickles under every multiprocessing start method.
    ``task`` is (path, start, count, first_rid, batch_size, plan): the
    worker opens its own reader and streams the slice by record offsets,
    one decoded page at a time.  Each page is keyed by the batch Hilbert
    kernel and bucketed by ``np.searchsorted(..., side="right")``, which is
    ``bisect_right`` over the plan's boundaries.
    """
    from repro.dataset.io import RecordFileReader

    started = time.perf_counter()
    path, start, count, first_rid, batch_size, plan = task
    boundaries = plan.boundaries
    buckets: list[_SubRun] = [[] for _ in range(plan.shard_count)]
    scanned = 0
    for position, points in RecordFileReader(path).iter_point_batches(
        batch_size, start=start, count=count
    ):
        if points.shape[0] == 0:
            continue
        keys = hilbert_keys_for_points(points, plan.lows, plan.highs, plan.bits)
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
        rid = first_rid + position
        for key, shard, row in zip(keys.tolist(), shard_of, points.tolist()):
            buckets[shard].append((key, Record(rid, tuple(row))))
            rid += 1
        scanned += points.shape[0]
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
    batch_size: int = 8_192,
    first_rid: int = 0,
) -> ShardScan:
    """Plan and scan a record file into ``workers`` sorted shard runs.

    Workers stream disjoint record-offset slices of the file themselves —
    the parent never reads the input, only the workers' sorted runs.
    """
    from repro.dataset.io import RecordFileReader

    if workers < 1:
        raise ValueError("workers must be at least 1")
    reader = RecordFileReader(path)
    with span("parallel.plan", shards=workers):
        plan = plan_file_shards(
            path, workers, lows, highs, DEFAULT_HILBERT_BITS, batch_size=batch_size
        )
    tasks = [
        (str(path), start, count, first_rid, batch_size, plan)
        for start, count in slice_bounds(len(reader), workers)
    ]
    return _merge(plan, _scan_slices(tasks, workers, len(reader)))


def shard_record_stream(runs: Iterable[ShardRun]) -> Iterator[Record]:
    """The shards flattened back into one global Hilbert-ordered stream.

    Because the shards hold contiguous, ascending key ranges, concatenating
    their merged runs *is* the global ``(key, rid)`` sort.
    """
    for run in runs:
        if TRACE.enabled:
            TRACE.instant(
                "parallel.shard_stream", shard=run.index, records=len(run)
            )
        yield from run.records
