"""The sampled key-quantile shard planner.

The sharded bulk-anonymization engine (:mod:`repro.parallel.engine`) splits
the input into ``P`` contiguous Hilbert-key ranges.  This module decides
*where* those ranges begin and end: it samples a deterministic stride of
the input, computes the samples' Hilbert keys, and places the shard
boundaries at the sample quantiles, so every shard receives roughly the
same number of records regardless of how skewed the data is in space.

The plan is a pure function of (input, shard count, quantization): no RNG
is involved, so two plans over the same file always agree — one of the two
pillars of the engine's determinism guarantee (the other is that the
merged stream is independent of the boundaries themselves; see the engine
module).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.kernels.hilbert import hilbert_keys_for_points

#: How many records the planner samples to estimate the key quantiles.
DEFAULT_SAMPLE_SIZE = 2_048


@dataclass(frozen=True)
class ShardPlan:
    """``P`` contiguous Hilbert-key ranges over a fixed quantization.

    ``boundaries`` holds the ``P - 1`` ascending key values separating the
    shards: shard ``i`` owns keys in ``[boundaries[i-1], boundaries[i])``
    (with open ends at the extremes).  Duplicate quantiles are allowed —
    they simply make some shards empty, which the engine tolerates.
    """

    boundaries: tuple[int, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    bits: int

    @property
    def shard_count(self) -> int:
        return len(self.boundaries) + 1


def plan_from_sample(
    sample_keys: Sequence[int],
    shards: int,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> ShardPlan:
    """Place ``shards - 1`` boundaries at the sample's key quantiles."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    ordered = sorted(sample_keys)
    boundaries: list[int] = []
    if ordered and shards > 1:
        for rank in range(1, shards):
            boundaries.append(ordered[rank * len(ordered) // shards])
    return ShardPlan(
        tuple(boundaries), tuple(lows), tuple(highs), bits
    )


def sample_file_keys(
    path: str | Path,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
    batch_size: int = 8_192,
) -> list[int]:
    """Stride-sample about ``DEFAULT_SAMPLE_SIZE`` records and key them.

    Reads the file once in pages (cheap sequential I/O) but keys only every
    ``stride``-th record, in one batch, so planning costs ``O(sample)`` key
    computations however large the file is.
    """
    from repro.dataset.io import RecordFileReader

    reader = RecordFileReader(path)
    stride = max(1, len(reader) // DEFAULT_SAMPLE_SIZE)
    sampled: list[np.ndarray] = []
    for position, points in reader.iter_point_batches(batch_size):
        first = -position % stride
        if first < points.shape[0]:
            sampled.append(points[first::stride])
    if not sampled:
        return []
    return hilbert_keys_for_points(
        np.concatenate(sampled, axis=0), lows, highs, bits
    ).tolist()


def plan_file_shards(
    path: str | Path,
    shards: int,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
    batch_size: int = 8_192,
) -> ShardPlan:
    """A shard plan for a binary record file."""
    return plan_from_sample(
        sample_file_keys(path, lows, highs, bits, batch_size),
        shards,
        lows,
        highs,
        bits,
    )


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
