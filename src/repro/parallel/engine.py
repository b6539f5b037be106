"""The sharded parallel scan behind ``RTreeAnonymizer.bulk_load_file(workers=N)``.

The pipeline has three steps:

1. **Slice**: :func:`slice_bounds` splits the file's records into ``P``
   contiguous, near-equal record-offset slices, one per worker.
2. **Sort** (`multiprocessing` worker pool): each worker streams its slice
   through :class:`~repro.dataset.io.RecordFileReader` offsets (no slice
   is ever materialized in the parent), keys every page with the batch
   Hilbert kernel, builds the slice's records and sorts them by
   ``(key, rid)`` into one run.  Keying and sorting — the per-record heavy
   lifting of a Hilbert-ordered load — thus parallelize across all
   workers.
3. **Merge**: the parent merges the ``P`` runs once (``heapq.merge`` over
   the pre-computed keys, ``O(N log P)``), and the anonymizer feeds that
   one stream through its buffer-tree loader.

**Determinism guarantee.**  Rids are unique, so ``(key, rid)`` is a total
order, and merging sorted runs yields the one sorted sequence: the stream
is the global ``(key, rid)`` order — what the ablation's
:func:`repro.index.bulk.hilbert_ordered` sorts the same records into —
*regardless of the worker count*.  The loaded tree is a deterministic
function of that stream, so it is identical for every worker count; the
serial/parallel differential suite asserts this leaf for leaf and release
for release.

Why the parent replays the tree build rather than stitching worker-built
subtrees under a shared root: a worker's records are a file slice, not a
region of space, so independently built R⁺-subtrees would overlap and
could never be joined by the binary-cut machinery without violating the
disjoint-region invariant.  Shipping the *sorted runs* back instead keeps
the structural pass serial while the per-record work (keying, sorting)
runs fan-out.
"""

from __future__ import annotations

import heapq
import time
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.dataset.record import Record
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.kernels.hilbert import hilbert_keys_for_points
from repro.obs import OBS, span

def slice_bounds(total: int, slices: int) -> list[tuple[int, int]]:
    """Split ``total`` records into contiguous, near-equal (start, count) slices.

    The engine hands one slice to each worker; together the slices tile
    ``[0, total)`` exactly, in order.
    """
    if slices < 1:
        raise ValueError("slices must be at least 1")
    slices = min(slices, max(1, total))
    base, extra = divmod(total, slices)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(slices):
        count = base + (1 if index < extra else 0)
        bounds.append((start, count))
        start += count
    return bounds


# -- worker side ------------------------------------------------------------


def _scan_slice(task: tuple) -> tuple[list[Record], list[int], float]:
    """One worker's job: stream a file slice, key it, sort it into one run.

    Module-level so it pickles under every multiprocessing start method.
    ``task`` is (path, start, count, first_rid, batch_size, lows, highs):
    the worker opens its own reader and streams the slice by record
    offsets, one decoded page at a time.  Returns the slice's records
    sorted by ``(key, rid)``, their keys in that order, and the worker's
    own seconds.  Rids grow with file position, so a stable sort on the
    key alone is the ``(key, rid)`` sort.
    """
    from repro.dataset.io import RecordFileReader

    started = time.perf_counter()
    path, start, count, first_rid, batch_size, lows, highs = task
    keys: list[int] = []
    records: list[Record] = []
    for position, points in RecordFileReader(path).iter_point_batches(
        batch_size, start=start, count=count
    ):
        keyed = hilbert_keys_for_points(points, lows, highs, DEFAULT_HILBERT_BITS)
        keys.extend(keyed.tolist())
        rid = first_rid + position
        records.extend(
            Record(rid + offset, tuple(row))
            for offset, row in enumerate(points.tolist())
        )
    # A record's key sits at its position in the slice, rid - slice_rid.
    slice_rid = first_rid + start
    records.sort(key=lambda record: keys[record.rid - slice_rid])
    keys.sort()  # now the run's keys, in run order
    return records, keys, time.perf_counter() - started


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
    the slice layout (and therefore nothing about the output, which is
    identical for every worker count), only the process fan-out is
    clamped.  Set ``REPRO_PARALLEL_POOL=force`` to fork one process per
    slice regardless (the test suite uses this to exercise the
    multiprocessing path even on single-CPU machines).
    """
    import os

    if os.environ.get("REPRO_PARALLEL_POOL") == "force":
        return min(workers, tasks)
    return min(workers, tasks, os.cpu_count() or 1)


# -- parent side ------------------------------------------------------------


def _scan_slices(
    tasks: list[tuple], workers: int, records: int
) -> list[tuple[list[Record], list[int], float]]:
    """Sort every slice — pooled, or in-process when a pool cannot help.

    Runs under one ``parallel.scan`` span.  Each worker's own time comes
    back with its run and is reported as a ``parallel.worker`` span under
    the scan, starting at dispatch.
    """
    if OBS.enabled:
        OBS.gauge("parallel.workers", workers)
    with span("parallel.scan", workers=workers, records=records) as scan:
        size = effective_pool_size(workers, len(tasks))
        if size <= 1:
            results = [_scan_slice(task) for task in tasks]
        else:
            with _mp_context().Pool(size) as pool:
                results = pool.map(_scan_slice, tasks)
        for index, (run, _keys, seconds) in enumerate(results):
            obs.record(
                "parallel.worker", scan.start, seconds, slice=index, records=len(run)
            )
            if OBS.enabled:
                OBS.count("parallel.worker_records", len(run))
    return results


def scan_file_shards(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    workers: int = 1,
    first_rid: int = 0,
) -> list[Record]:
    """A record file's records in ``(key, rid)`` order, sorted by ``workers``.

    Workers sort disjoint record-offset slices of the file themselves —
    the parent never reads the input, only the workers' sorted runs, which
    it merges once.
    """
    from repro.dataset.io import PAGE_RECORDS, RecordFileReader

    if workers < 1:
        raise ValueError("workers must be at least 1")
    total = len(RecordFileReader(path))
    tasks = [
        (str(path), start, count, first_rid, PAGE_RECORDS, tuple(lows), tuple(highs))
        for start, count in slice_bounds(total, workers)
    ]
    runs = _scan_slices(tasks, workers, total)
    if OBS.enabled:
        OBS.count("parallel.shards", len(runs))
        OBS.count("parallel.shard_records", sum(len(run) for run, _k, _s in runs))
    if len(runs) == 1:
        return runs[0][0]
    with span("parallel.merge", runs=len(runs)):
        # heapq.merge is a stable sorted(chain(*runs)): equal keys from
        # different runs come out in run order, and the slices hold
        # ascending rid ranges, so ties come out in rid order.
        merged = heapq.merge(
            *(zip(keys, run) for run, keys, _seconds in runs), key=itemgetter(0)
        )
        return [record for _key, record in merged]
