"""The serving-side query engine: §5.4 queries as one columnar scan.

A :class:`QueryEngine` holds one release as numpy columns — partition
``lows`` and ``highs`` (float64, one row per attribute) and ``sizes``
(int64) — and answers four query shapes with the chunked broadcast of
:func:`repro.query.ranges.intersecting_sums`:

* **range COUNT** — sum of partition sizes over partitions intersecting
  the query box (the §5.4 anonymized-table semantics);
* **point lookup** — a range COUNT over the degenerate box ``[p, p]``
  (``box.contains_point(p)`` iff ``box.intersects(Box(p, p))``), plus
  access to the matching partitions themselves;
* **distinct count** — the number of partitions (equivalence classes)
  intersecting the query box;
* **group-by aggregate** — per-bin range COUNTs along one attribute.

A release is a few thousand partition boxes, so every query scans all of
them: no index to build or descend.  Answers equal the scalar oracle
(:func:`repro.query.ranges.count_anonymized`) exactly — the same closed
box comparisons, summed in int64 — and the differential suite holds
every answer to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.partition import AnonymizedTable, Partition
from repro.geometry.box import Box
from repro.obs import OBS
from repro.query.ranges import (
    RangeQuery,
    intersecting_sums,
    intersection_mask,
    partition_columns,
    query_columns,
)

#: Query kinds the serving layer accepts.
QUERY_KINDS = ("count", "distinct")

_KIND_COUNTERS = {"count": "query.count_queries", "distinct": "query.distinct_queries"}


@dataclass(frozen=True)
class QueryResult:
    """A batch answer stamped with the release it was computed against.

    ``epoch`` and ``digest`` identify the exact snapshot: two results with
    equal digests were answered against bit-identical releases, which is
    how readers (and the stress suite) check epoch consistency under a
    live writer.
    """

    kind: str
    values: tuple[int, ...]
    k: int
    epoch: int
    digest: str

    def __len__(self) -> int:
        return len(self.values)


def point_query(point: Sequence[float]) -> RangeQuery:
    """The degenerate range query matching exactly the partitions whose
    box contains ``point``."""
    coords = tuple(float(value) for value in point)
    return RangeQuery(Box(coords, coords))


def group_by_queries(
    base: Box, dimension: int, edges: Sequence[float]
) -> list[RangeQuery]:
    """Per-bin range queries along one attribute of ``base``.

    Bin ``i`` spans the closed interval ``[edges[i], edges[i+1]]`` on
    ``dimension`` and all of ``base`` elsewhere.  Boxes are closed (§5.4),
    so partitions sitting exactly on a shared edge count toward both
    neighbouring bins — the semantics callers already get from
    ``count_anonymized`` on the same boxes.
    """
    if len(edges) < 2:
        raise ValueError("need at least two edges to form a bin")
    ordered = [float(edge) for edge in edges]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        raise ValueError("edges must be non-decreasing")
    if not 0 <= dimension < base.dimensions:
        raise ValueError(f"dimension {dimension} out of range for {base.dimensions}")
    queries = []
    for low, high in zip(ordered, ordered[1:]):
        lows = list(base.lows)
        highs = list(base.highs)
        lows[dimension] = low
        highs[dimension] = high
        queries.append(RangeQuery(Box(tuple(lows), tuple(highs))))
    return queries


class QueryEngine:
    """Columnar §5.4 query evaluation over one immutable release."""

    def __init__(self, table: AnonymizedTable) -> None:
        self._table = table
        self.lows, self.highs, self.sizes = partition_columns(table)
        if OBS.enabled:
            OBS.count("query.engine_builds")

    # -- properties ----------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return len(self.sizes)

    @property
    def bounds(self) -> Box:
        """The release MBR."""
        return Box(
            tuple(self.lows.min(axis=1).tolist()),
            tuple(self.highs.max(axis=1).tolist()),
        )

    @property
    def table(self) -> AnonymizedTable:
        return self._table

    # -- evaluation ----------------------------------------------------------

    def count(self, query: RangeQuery) -> int:
        """Range COUNT: total records of partitions intersecting the query."""
        return self.evaluate([query])[0]

    def distinct_count(self, query: RangeQuery) -> int:
        """Number of distinct equivalence classes intersecting the query."""
        return self.evaluate([query], "distinct")[0]

    def evaluate(self, queries: Sequence[RangeQuery], kind: str = "count") -> list[int]:
        """Answer a whole workload; ``kind`` is ``"count"`` or ``"distinct"``."""
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected {QUERY_KINDS}")
        values = self._scan(queries, self.sizes if kind == "count" else None)
        if OBS.enabled:
            OBS.count(_KIND_COUNTERS[kind], len(values))
        return values

    def point_lookup(self, point: Sequence[float]) -> int:
        """Records that *might* match ``point``: the sizes of every
        partition whose box contains it (§5.4 point semantics)."""
        if OBS.enabled:
            OBS.count("query.point_lookups")
        return self._scan([point_query(point)], self.sizes)[0]

    def point_partitions(self, point: Sequence[float]) -> tuple[Partition, ...]:
        """The equivalence classes whose box contains ``point``."""
        qlows, qhighs = self._columns([point_query(point)])
        mask = intersection_mask(self.lows, self.highs, qlows, qhighs)[0]
        if OBS.enabled:
            OBS.count("query.point_lookups")
        partitions = self._table.partitions
        return tuple(partitions[index] for index in np.flatnonzero(mask))

    def group_by_count(
        self,
        dimension: int,
        edges: Sequence[float],
        base: Box | None = None,
    ) -> list[tuple[float, float, int]]:
        """Per-bin range COUNTs along ``dimension``.

        ``base`` defaults to the engine's own bounds (the release MBR).
        Returns ``(bin low, bin high, count)`` rows.
        """
        queries = group_by_queries(
            self.bounds if base is None else base, dimension, edges
        )
        if OBS.enabled:
            OBS.count("query.groupby_queries")
        return [
            (query.box.lows[dimension], query.box.highs[dimension], value)
            for query, value in zip(queries, self.evaluate(queries))
        ]

    # -- internals -----------------------------------------------------------

    def _columns(self, queries: Sequence[RangeQuery]) -> tuple[np.ndarray, np.ndarray]:
        qlows, qhighs = query_columns(queries, len(self.lows))
        if OBS.enabled:
            OBS.count("query.partitions_scanned", len(queries) * len(self.sizes))
        return qlows, qhighs

    def _scan(
        self, queries: Sequence[RangeQuery], weights: np.ndarray | None
    ) -> list[int]:
        qlows, qhighs = self._columns(queries)
        return intersecting_sums(self.lows, self.highs, qlows, qhighs, weights).tolist()
