"""Sort-based grouping: Hilbert ordering and Sort-Tile-Recursive packing.

These are the §2.1 alternatives the paper's authors "experimented with"
before adopting the buffer tree — reproduced here so the ablation bench can
compare them with the buffer-tree loader on time and on the quality of the
partitions they produce.

* :func:`hilbert_partitions` — sort records along the Hilbert curve
  (Kamel & Faloutsos packing), then cut the sorted run into consecutive
  groups of about ``2k`` records (:func:`chunk_with_floor`).
* :func:`str_partitions` — Sort-Tile-Recursive: recursively slice the data
  with balanced axis cuts, cycling through the dimensions, until groups fit
  in a leaf.

:func:`hilbert_ordered` is also the sort of the ``"hilbert"`` release
strategy, and its ``(key, rid)`` order is the stream the sharded file load
(:mod:`repro.parallel`) feeds the buffer-tree loader: each worker sorts
its file slice into that order, and one merge of the slices' runs
yields it for the whole file.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataset.record import Record
from repro.index.split import best_threshold
from repro.kernels.hilbert import hilbert_keys_for_points
from repro.obs import OBS, span

#: Grid resolution for Hilbert quantization.
DEFAULT_HILBERT_BITS = 10


def _hilbert_keys(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> list[int]:
    """Every record's Hilbert key, via the batch kernel, as Python ints."""
    points = np.array([record.point for record in records], dtype=np.float64)
    keys = hilbert_keys_for_points(points, lows, highs, bits).tolist()
    if OBS.enabled:
        OBS.count("kernels.keyed_records", len(keys))
    return keys


def hilbert_ordered(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int = DEFAULT_HILBERT_BITS,
) -> list[Record]:
    """Records sorted by ``(hilbert key, rid)`` over the given domain box.

    The rid tie-break makes this order a pure function of the record
    **set**, independent of how the records arrive.  The ``"hilbert"``
    release strategy sorts with this function, which is what makes its
    release independent of the tree's shape.
    """
    with span("bulk.hilbert_order", records=len(records)):
        if len(records) < 2:
            return list(records)
        keys = _hilbert_keys(records, lows, highs, bits)
        order = sorted(
            range(len(records)),
            key=lambda index: (keys[index], records[index].rid),
        )
        return [records[index] for index in order]


def hilbert_partitions(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    k: int,
    bits: int = DEFAULT_HILBERT_BITS,
) -> list[list[Record]]:
    """Consecutive groups of ~2k records along the Hilbert curve.

    Every group holds at least ``k`` records (the final remainder is merged
    into the last full group), so the grouping is k-anonymous.  Raises
    ``ValueError`` when the input holds fewer than ``k`` records in total.
    """
    return chunk_with_floor(hilbert_ordered(records, lows, highs, bits), k)


def str_partitions(
    records: Sequence[Record], dimensions: int, k: int
) -> list[list[Record]]:
    """Sort-Tile-Recursive grouping: balanced axis cuts, cycling dimensions.

    Greedily cuts the widest remaining group with a balanced threshold on
    the cycling dimension (skipping dimensions made unusable by duplicates)
    until every group holds at most ``2k`` records, with ``k`` as the hard
    floor on both sides of every cut.
    """
    with span("bulk.str_partition", records=len(records)):
        target = 2 * k
        result: list[list[Record]] = []
        stack: list[tuple[list[Record], int]] = [(list(records), 0)]
        while stack:
            group, start_dimension = stack.pop()
            if len(group) <= target:
                result.append(group)
                continue
            cut = None
            for offset in range(dimensions):
                dimension = (start_dimension + offset) % dimensions
                found = best_threshold([r.point[dimension] for r in group], k)
                if found is not None:
                    cut = (dimension, found[0])
                    break
            if cut is None:
                # Duplicates block every dimension: the group stays whole.
                result.append(group)
                continue
            dimension, value = cut
            left = [r for r in group if r.point[dimension] <= value]
            right = [r for r in group if r.point[dimension] > value]
            stack.append((right, dimension + 1))
            stack.append((left, dimension + 1))
        return result


def chunk_with_floor(ordered: Sequence[Record], k: int) -> list[list[Record]]:
    """Consecutive chunks of 2k records with a k-record floor on the tail.

    Raises ``ValueError`` when the input holds fewer than ``k`` records:
    no k-anonymous grouping exists then, and one undersized group would
    publish a partition below the paper's k-floor.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(ordered) < k:
        raise ValueError(
            f"cannot form k-anonymous groups: {len(ordered)} records < k={k}"
        )
    size = 2 * k
    groups: list[list[Record]] = []
    for start in range(0, len(ordered), size):
        groups.append(list(ordered[start : start + size]))
    if len(groups) > 1 and len(groups[-1]) < k:
        tail = groups.pop()
        groups[-1].extend(tail)
    return groups
