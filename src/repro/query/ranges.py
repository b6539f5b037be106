"""Range COUNT queries and the paper's match semantics.

§5.4 fixes the semantics precisely:

* on the **original** table, a record matches when its *point* lies inside
  the query region;
* on the **anonymized** table, a record matches when its generalized *box*
  has a non-null intersection with the query region on every attribute —
  the record "might" satisfy the query, so a COUNT must include it.

The alternative §2.3 estimator — assume each partition is uniform and
credit the query with ``|P| * vol(P ∩ Q) / vol(P)`` — is provided as
:func:`estimate_anonymized` and used by one ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.partition import AnonymizedTable
from repro.dataset.table import Table
from repro.geometry.box import Box


@dataclass(frozen=True)
class RangeQuery:
    """A closed multidimensional range predicate (a box)."""

    box: Box

    @property
    def dimensions(self) -> int:
        return self.box.dimensions

    def matches_point(self, point: tuple[float, ...]) -> bool:
        return self.box.contains_point(point)

    def matches_box(self, other: Box) -> bool:
        return self.box.intersects(other)


def count_original(query: RangeQuery, table: Table) -> int:
    """COUNT over the original table: points inside the query region."""
    return sum(1 for record in table if query.matches_point(record.point))


def count_original_bulk(queries: list[RangeQuery], table: Table) -> np.ndarray:
    """Vectorized original-table counts for a whole workload.

    Chunked numpy broadcasting: with 1000 queries on tens of thousands of
    records the pure-Python loop would dominate the query benches.
    """
    points = np.array(table.points(), dtype=np.float64)
    lows = np.array([q.box.lows for q in queries], dtype=np.float64)
    highs = np.array([q.box.highs for q in queries], dtype=np.float64)
    counts = np.zeros(len(queries), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(1, points.shape[0]))
    for start in range(0, len(queries), chunk):
        ql = lows[start : start + chunk]
        qh = highs[start : start + chunk]
        inside = np.logical_and(
            (points[None, :, :] >= ql[:, None, :]).all(axis=2),
            (points[None, :, :] <= qh[:, None, :]).all(axis=2),
        )
        counts[start : start + chunk] = inside.sum(axis=1)
    return counts


def count_anonymized(query: RangeQuery, table: AnonymizedTable) -> int:
    """COUNT over an anonymized table: all records of intersecting partitions."""
    return sum(
        len(partition)
        for partition in table.partitions
        if query.matches_box(partition.box)
    )


def count_anonymized_bulk(
    queries: list[RangeQuery], table: AnonymizedTable
) -> np.ndarray:
    """Vectorized anonymized-table counts for a whole workload.

    The columnar twin of :func:`count_anonymized`; the serving
    :class:`~repro.query.engine.QueryEngine` runs the same kernel over
    columns it builds once per release.
    """
    lows, highs, sizes = partition_columns(table)
    qlows, qhighs = query_columns(queries, len(lows))
    return intersecting_sums(lows, highs, qlows, qhighs, sizes)


#: Query x partition cells per broadcast chunk (bounds the mask's memory).
_CHUNK_CELLS = 2_000_000


def partition_columns(
    table: AnonymizedTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A release as columns: ``lows`` and ``highs`` (one float64 row per
    attribute, one column per partition) and int64 partition ``sizes``."""
    partitions = table.partitions
    shape = (len(partitions), partitions[0].box.dimensions)
    lows = np.array([p.box.lows for p in partitions], dtype=np.float64)
    highs = np.array([p.box.highs for p in partitions], dtype=np.float64)
    sizes = np.array([len(p) for p in partitions], dtype=np.int64)
    return (
        np.ascontiguousarray(lows.reshape(shape).T),
        np.ascontiguousarray(highs.reshape(shape).T),
        sizes,
    )


def query_columns(
    queries: Sequence[RangeQuery], dimensions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Query boxes in the :func:`partition_columns` layout.

    Raises ``ValueError`` when a query's dimension count differs from
    ``dimensions``: box intersection would otherwise compare a prefix of
    the attributes and silently ignore the rest.
    """
    for query in queries:
        if query.dimensions != dimensions:
            raise ValueError(
                f"query has {query.dimensions} dimensions; "
                f"the release has {dimensions}"
            )
    shape = (len(queries), dimensions)
    lows = np.array([q.box.lows for q in queries], dtype=np.float64)
    highs = np.array([q.box.highs for q in queries], dtype=np.float64)
    return lows.reshape(shape).T, highs.reshape(shape).T


def intersection_mask(
    lows: np.ndarray, highs: np.ndarray, qlows: np.ndarray, qhighs: np.ndarray
) -> np.ndarray:
    """The (queries x partitions) mask of closed boxes that intersect.

    Boxes intersect iff they overlap on every attribute, so the mask is
    narrowed one attribute column at a time.
    """
    mask = np.ones((qlows.shape[1], lows.shape[1]), dtype=bool)
    for low, high, qlow, qhigh in zip(lows, highs, qlows, qhighs):
        mask &= low <= qhigh[:, None]
        mask &= qlow[:, None] <= high
    return mask


def intersecting_sums(
    lows: np.ndarray,
    highs: np.ndarray,
    qlows: np.ndarray,
    qhighs: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per query, the int64 sum of ``weights`` over intersecting
    partitions (``None`` counts the partitions themselves).

    Sums stay in integers: routing the mask through float64 would lose
    exactness past 2**53 and diverge from the scalar oracle.
    """
    sums = np.zeros(qlows.shape[1], dtype=np.int64)
    chunk = max(1, _CHUNK_CELLS // max(1, lows.shape[1]))
    for start in range(0, len(sums), chunk):
        stop = start + chunk
        mask = intersection_mask(
            lows, highs, qlows[:, start:stop], qhighs[:, start:stop]
        )
        sums[start:stop] = (
            mask.sum(axis=1) if weights is None else mask @ weights
        )
    return sums


def estimate_anonymized(query: RangeQuery, table: AnonymizedTable) -> float:
    """The §2.3 uniform-density estimator.

    Each intersecting partition contributes its size scaled by the fraction
    of its (discrete) volume that overlaps the query; degenerate boxes that
    intersect contribute their full size (their whole mass is inside).
    """
    estimate = 0.0
    for partition in table.partitions:
        overlap = query.box.intersection(partition.box)
        if overlap is None:
            continue
        volume = partition.box.discrete_volume()
        share = overlap.discrete_volume() / volume if volume > 0 else 1.0
        estimate += len(partition) * share
    return estimate
