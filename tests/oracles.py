"""Scalar reference implementations of the numpy production paths.

Each function here is the plain-Python form of an operation whose only
production path is a numpy kernel: the per-record ``struct`` page decoder,
the ``hilbert_key(quantize(...))`` sorts, the stride samplers, the
shard scan and the exhaustive NCP split search.  They exist only so the
differential suites can hold the production code to them record for
record; nothing in ``src`` calls them.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, Sequence

from repro.dataset.io import _HEADER, RecordFileReader
from repro.dataset.record import Record
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.index.hilbert import hilbert_key, quantize
from repro.index.split import SplitDecision
from repro.parallel.planner import (
    DEFAULT_SAMPLE_SIZE,
    ShardPlan,
    plan_from_sample,
    slice_bounds,
)


def read_records(
    path: str | Path,
    batch_size: int = 8_192,
    first_rid: int = 0,
    start: int = 0,
    count: int | None = None,
) -> Iterator[Record]:
    """File-position records, one ``struct.iter_unpack`` row at a time."""
    reader = RecordFileReader(path)
    unpacker = struct.Struct(f"<{reader.dimensions}i")
    remaining = len(reader) - start if count is None else count
    rid = first_rid + start
    with open(path, "rb") as handle:
        handle.seek(_HEADER.size + start * unpacker.size)
        while remaining > 0:
            want = min(remaining, batch_size)
            chunk = handle.read(want * unpacker.size)
            if len(chunk) != want * unpacker.size:
                raise ValueError(f"{path}: short read at record {rid}")
            for values in unpacker.iter_unpack(chunk):
                yield Record(rid, tuple(float(value) for value in values))
                rid += 1
            remaining -= want


def _key(
    point: Sequence[float],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> int:
    return hilbert_key(quantize(point, lows, highs, bits), bits)


def hilbert_sorted(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int = DEFAULT_HILBERT_BITS,
) -> list[Record]:
    """Stable sort by Hilbert key (input order between equal keys)."""
    return sorted(records, key=lambda record: _key(record.point, lows, highs, bits))


def hilbert_ordered(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int = DEFAULT_HILBERT_BITS,
) -> list[Record]:
    """Sort by ``(Hilbert key, rid)``."""
    return sorted(
        records,
        key=lambda record: (_key(record.point, lows, highs, bits), record.rid),
    )


def sample_record_keys(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> list[int]:
    stride = max(1, len(records) // max(1, sample_size))
    return [
        _key(records[index].point, lows, highs, bits)
        for index in range(0, len(records), stride)
    ]


def sample_file_keys(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> list[int]:
    stride = max(1, len(RecordFileReader(path)) // max(1, sample_size))
    return [
        _key(record.point, lows, highs, bits)
        for index, record in enumerate(read_records(path))
        if index % stride == 0
    ]


def scan_slice(task: tuple) -> list[list[tuple[int, Record]]]:
    """The shard scan's buckets for one task tuple, record by record.

    Takes the production task layout (kind, payload, boundaries, lows,
    highs, bits) and returns each shard's ``(key, record)`` pairs sorted
    by ``(key, rid)``.
    """
    kind, payload, boundaries, lows, highs, bits = task
    if kind == "file":
        path, start, count, first_rid, batch_size = payload
        stream = read_records(path, batch_size, first_rid, start, count)
    else:
        stream = payload
    buckets: list[list[tuple[int, Record]]] = [
        [] for _ in range(len(boundaries) + 1)
    ]
    for record in stream:
        key = _key(record.point, lows, highs, bits)
        buckets[bisect_right(boundaries, key)].append((key, record))
    for bucket in buckets:
        bucket.sort(key=lambda pair: (pair[0], pair[1].rid))
    return buckets


def file_shard_plan(
    path: str | Path,
    shards: int,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int = DEFAULT_HILBERT_BITS,
) -> ShardPlan:
    return plan_from_sample(
        sample_file_keys(path, lows, highs, bits), shards, lows, highs, bits
    )


def sharded_record_stream(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    workers: int,
    bits: int = DEFAULT_HILBERT_BITS,
    batch_size: int = 8_192,
) -> list[Record]:
    """The record order a ``workers``-way sharded file load feeds the loader.

    Plans from the scalar sample, scans every slice with :func:`scan_slice`
    and concatenates the shards' ``(key, rid)``-sorted runs in shard order.
    """
    plan = file_shard_plan(path, workers, lows, highs, bits)
    tasks = [
        ("file", (str(path), start, count, 0, batch_size))
        + (plan.boundaries, plan.lows, plan.highs, plan.bits)
        for start, count in slice_bounds(len(RecordFileReader(path)), workers)
    ]
    results = [scan_slice(task) for task in tasks]
    ordered: list[Record] = []
    for shard in range(plan.shard_count):
        pairs = [pair for buckets in results for pair in buckets[shard]]
        pairs.sort(key=lambda pair: (pair[0], pair[1].rid))
        ordered.extend(record for _key, record in pairs)
    return ordered


def exhaustive_ncp_split_small(
    records: Sequence[Record],
    min_count: int,
    domain_extents: Sequence[float],
    weights: Sequence[float] | None,
    dimensions: Sequence[int],
) -> SplitDecision | None:
    """Pure-Python exhaustive boundary search.

    Same objective and same result set as
    :func:`repro.index.split.exhaustive_ncp_split`: per dimension, one sort
    plus two incremental sweeps maintain the prefix / suffix normalized
    margins in O(n·d), so every legal boundary is scored in plain Python.
    """
    total = len(records)
    if total < 2 * min_count:
        return None
    points = [record.point for record in records]
    inverse = [
        1.0 / extent if extent > 0 else 0.0 for extent in domain_extents
    ]
    if weights is not None:
        inverse = [i * w for i, w in zip(inverse, weights)]
    best: SplitDecision | None = None
    best_score = float("inf")
    for dimension in dimensions:
        order = sorted(range(total), key=lambda i: points[i][dimension])
        values = [points[i][dimension] for i in order]
        if values[0] == values[-1]:
            continue
        prefix = _running_margins(points, order, inverse)
        suffix = _running_margins(points, order[::-1], inverse)[::-1]
        for boundary in range(min_count - 1, total - min_count):
            if values[boundary] == values[boundary + 1]:
                continue
            left_count = boundary + 1
            score = left_count * prefix[boundary] + (total - left_count) * suffix[
                boundary + 1
            ]
            if score < best_score:
                best_score = score
                best = SplitDecision(
                    dimension, values[boundary], left_count, total - left_count
                )
    return best


def _running_margins(
    points: Sequence[Sequence[float]],
    order: Sequence[int],
    inverse: Sequence[float],
) -> list[float]:
    """``out[i]`` = normalized margin of the MBR of ``points[order[:i+1]]``.

    Maintains per-dimension minima/maxima and the running margin sum,
    updating only the dimensions a new point actually extends.
    """
    first = points[order[0]]
    mins = list(first)
    maxs = list(first)
    margin = 0.0
    out = [0.0] * len(order)
    for position in range(1, len(order)):
        point = points[order[position]]
        for dimension, value in enumerate(point):
            if value < mins[dimension]:
                margin += (mins[dimension] - value) * inverse[dimension]
                mins[dimension] = value
            elif value > maxs[dimension]:
                margin += (value - maxs[dimension]) * inverse[dimension]
                maxs[dimension] = value
        out[position] = margin
    return out
