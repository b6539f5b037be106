"""Leaf split policies.

When a leaf exceeds its capacity the tree must choose an axis-aligned cut
``(dimension, value)`` that divides the records into two groups, each at
least ``min_count`` strong (the k-anonymity floor).  *Which* dimension gets
cut is the policy decision the paper leans on twice:

* the default R-tree behaviour "splits by trying to minimize the area of
  the resulting partitions" (§5.3) — :class:`MinMarginSplitPolicy`;
* workload awareness (§2.4) comes from *biasing* the choice toward a
  preferred attribute subset (:class:`BiasedSplitPolicy`, used for the
  Figure 12(c)/(d) zipcode experiment) or from weighting attributes in a
  certainty-penalty-like objective (:class:`WeightedSplitPolicy`).

All margin-driven policies score a candidate cut with the *size-weighted
normalized margin* of the two resulting MBRs,
``|L| * NCP(mbr(L)) + |R| * NCP(mbr(R))`` — exactly the certainty-penalty
contribution (Definition 4) the new partitions will incur, so split-time
greed directly optimizes the quality metric the evaluation reports.

A policy may return ``None`` when no legal cut exists — e.g. every record
identical, or duplicates so heavy that no boundary leaves ``min_count`` on
both sides.  The tree then leaves the node over-full, which never violates
k-anonymity (only the *minimum* occupancy matters for privacy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.dataset.record import Record


@dataclass(frozen=True)
class SplitDecision:
    """A chosen cut: records with ``point[dimension] <= value`` go left."""

    dimension: int
    value: float
    left_count: int
    right_count: int


def best_threshold(
    values: Sequence[float], min_count: int
) -> tuple[float, int] | None:
    """The most balanced legal threshold along one dimension.

    Candidate thresholds sit between consecutive *distinct* sorted values;
    the one whose left-group size is closest to ``len(values) / 2`` wins,
    subject to both sides holding at least ``min_count`` items.  Returns
    ``(threshold, left_count)`` or ``None`` when no boundary qualifies
    (single distinct value, or duplicates too concentrated).
    """
    candidates = candidate_thresholds(values, min_count)
    return candidates[0] if candidates else None


def candidate_thresholds(
    values: Sequence[float], min_count: int
) -> list[tuple[float, int]]:
    """Promising legal thresholds along one dimension.

    Two candidates per dimension, deduplicated:

    * the **most balanced** boundary (closest to the median) — minimizes
      tree imbalance, the B-tree instinct (always first in the result);
    * the **widest gap** boundary — maximizes the empty space between the
      two resulting MBRs, the R-tree instinct that buys compaction (a cut
      through a gap leaves both sides' extents strictly smaller).

    Each is returned as ``(threshold, left_count)`` and is legal: at least
    ``min_count`` values on both sides.  Empty when no boundary is legal.
    One linear sweep over the sorted values; on ties the first boundary
    wins for both candidates.
    """
    total = len(values)
    if total < 2 * min_count:
        return []
    ordered = sorted(values)
    target = total / 2.0
    balanced: tuple[float, int] | None = None
    balanced_distance = float("inf")
    widest: tuple[float, int] | None = None
    widest_gap = -1.0
    index = 0
    while index < total:
        value = ordered[index]
        # Advance to the last occurrence of this distinct value.
        while index + 1 < total and ordered[index + 1] == value:
            index += 1
        left_count = index + 1
        right_count = total - left_count
        if right_count == 0:
            break
        if left_count >= min_count and right_count >= min_count:
            distance = abs(left_count - target)
            if distance < balanced_distance:
                balanced_distance = distance
                balanced = (value, left_count)
            gap = ordered[index + 1] - value
            if gap > widest_gap:
                widest_gap = gap
                widest = (value, left_count)
        index += 1
    candidates: list[tuple[float, int]] = []
    if balanced is not None:
        candidates.append(balanced)
    if widest is not None and widest != balanced:
        candidates.append(widest)
    return candidates


def partition_records(
    records: Sequence[Record], dimension: int, value: float
) -> tuple[list[Record], list[Record]]:
    """Split records by the cut predicate ``point[dimension] <= value``."""
    left: list[Record] = []
    right: list[Record] = []
    for record in records:
        if record.point[dimension] <= value:
            left.append(record)
        else:
            right.append(record)
    return left, right


class SplitPolicy(abc.ABC):
    """Chooses the cut dimension and threshold for an overflowing leaf."""

    @abc.abstractmethod
    def choose_split(
        self,
        records: Sequence[Record],
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        """Pick a legal cut, or ``None`` when no legal cut exists.

        ``domain_extents`` are the full attribute ranges used to normalize
        extents so that attributes on different scales compete fairly.
        """


class MinMarginSplitPolicy(SplitPolicy):
    """Minimize the size-weighted normalized margin of the resulting MBRs.

    This is the R-tree instinct the paper credits for its quality edge:
    "the R-tree splits by trying to minimize the area of the resulting
    partitions".  Engineering choices on top of the plain idea:

    * *margin* (sum of normalized extents) rather than raw area, so that
      degenerate extents — ubiquitous with duplicated attribute values —
      do not zero out the objective;
    * each side's margin is *weighted by its record count*, which makes the
      score exactly the certainty-penalty contribution the new partitions
      will incur (Definition 4) and keeps wide-gap but lopsided cuts from
      gaming an unweighted sum with sliver groups;
    * axis preselection in the R*-tree spirit: only the ``max_dimensions``
      dimensions with the widest normalized data extent are searched
      (``None`` searches all), since narrow dimensions almost never host
      the winning cut — the ablation bench quantifies the (tiny) quality
      cost and the (sizable) speed gain of the default of 3.

    Within each candidate dimension every legal boundary is scored via the
    vectorized exhaustive search.
    """

    def __init__(self, max_dimensions: int | None = 3) -> None:
        if max_dimensions is not None and max_dimensions < 1:
            raise ValueError("max_dimensions must be at least 1 (or None)")
        self._max_dimensions = max_dimensions

    def choose_split(
        self,
        records: Sequence[Record],
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        if len(records) < 2 * min_count:
            return None
        count = len(domain_extents)
        if self._max_dimensions is None or self._max_dimensions >= count:
            dimensions: Sequence[int] = range(count)
        else:
            dimensions = widest_dimensions(
                records, domain_extents, self._max_dimensions
            )
        return exhaustive_ncp_split(
            records, min_count, domain_extents, None, dimensions
        )


def widest_dimensions(
    records: Sequence[Record],
    domain_extents: Sequence[float],
    how_many: int,
) -> list[int]:
    """The ``how_many`` dimensions with the widest normalized data extent."""
    count = len(domain_extents)
    mins = list(records[0].point)
    maxs = list(records[0].point)
    for record in records:
        for dimension, value in enumerate(record.point):
            if value < mins[dimension]:
                mins[dimension] = value
            elif value > maxs[dimension]:
                maxs[dimension] = value
    def normalized_width(dimension: int) -> float:
        extent = domain_extents[dimension]
        if extent <= 0:
            return 0.0
        return (maxs[dimension] - mins[dimension]) / extent
    ranked = sorted(range(count), key=normalized_width, reverse=True)
    return ranked[:how_many]


class MidpointSplitPolicy(SplitPolicy):
    """Cut the dimension with the widest normalized data extent.

    The single-attribute analogue of Mondrian's choose-widest heuristic,
    provided as an ablation point against :class:`MinMarginSplitPolicy`.
    """

    def choose_split(
        self,
        records: Sequence[Record],
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        # Too few records cannot split legally — and an empty group would
        # crash the max()/min() width scan below, a latent trap the other
        # policies already guard via their size checks.
        if len(records) < 2 * min_count:
            return None
        widths: list[tuple[float, int]] = []
        for dimension, domain_extent in enumerate(domain_extents):
            values = [record.point[dimension] for record in records]
            extent = max(values) - min(values)
            normalized = extent / domain_extent if domain_extent > 0 else 0.0
            widths.append((normalized, dimension))
        widths.sort(reverse=True)
        for _normalized, dimension in widths:
            found = best_threshold(
                [record.point[dimension] for record in records], min_count
            )
            if found is not None:
                value, left_count = found
                return SplitDecision(
                    dimension, value, left_count, len(records) - left_count
                )
        return None


class BiasedSplitPolicy(SplitPolicy):
    """Always cut a preferred attribute subset when legally possible.

    "The biased splitting algorithm selects the Zipcode attribute as the
    splitting attribute for every split" (§5.4).  When every preferred
    dimension is unusable (too many duplicates), the fallback policy decides
    among the remaining dimensions so the tree can always make progress.
    """

    def __init__(
        self,
        preferred_dimensions: Sequence[int],
        fallback: SplitPolicy | None = None,
    ) -> None:
        if not preferred_dimensions:
            raise ValueError("biased policy needs at least one preferred dimension")
        self._preferred = tuple(preferred_dimensions)
        self._fallback = fallback if fallback is not None else MinMarginSplitPolicy()

    def choose_split(
        self,
        records: Sequence[Record],
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        chosen = exhaustive_ncp_split(
            records, min_count, domain_extents, None, self._preferred
        )
        if chosen is not None:
            return chosen
        return self._fallback.choose_split(records, min_count, domain_extents)


class WeightedSplitPolicy(SplitPolicy):
    """Minimize the *attribute-weighted* normalized margin of the MBRs.

    The §2.4 suggestion drawn from the weighted certainty penalty: "it
    benefits the spatial index to split the more important attributes...
    to arrive at a lower penalty score for the new partitions."  Weights
    above 1 make an attribute more attractive to split (its residual extent
    costs more); a weight of 1 everywhere recovers
    :class:`MinMarginSplitPolicy` exactly.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        self._weights = tuple(weights)

    def choose_split(
        self,
        records: Sequence[Record],
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        if len(self._weights) != len(domain_extents):
            raise ValueError(
                f"{len(self._weights)} weights for {len(domain_extents)} dimensions"
            )
        return exhaustive_ncp_split(
            records,
            min_count,
            domain_extents,
            self._weights,
            range(len(domain_extents)),
        )


def group_margin(
    records: Sequence[Record],
    domain_extents: Sequence[float],
    weights: Sequence[float] | None = None,
) -> float:
    """Normalized (optionally weighted) margin of a record group's MBR.

    This is the per-record NCP the certainty metric charges (Definition 4),
    which is why minimizing it at split time directly buys quality.  A
    single pass over the records computes the extents on every dimension.
    """
    if not records:
        return 0.0
    first = records[0].point
    mins = list(first)
    maxs = list(first)
    for record in records:
        for dimension, value in enumerate(record.point):
            if value < mins[dimension]:
                mins[dimension] = value
            elif value > maxs[dimension]:
                maxs[dimension] = value
    total = 0.0
    for dimension, domain_extent in enumerate(domain_extents):
        if domain_extent <= 0:
            continue
        extent = (maxs[dimension] - mins[dimension]) / domain_extent
        if weights is not None:
            extent *= weights[dimension]
        total += extent
    return total


def exhaustive_ncp_split(
    records: Sequence[Record],
    min_count: int,
    domain_extents: Sequence[float],
    weights: Sequence[float] | None,
    dimensions: Sequence[int],
) -> SplitDecision | None:
    """Evaluate every legal boundary on the given dimensions, vectorized.

    For each candidate dimension the records are sorted once and prefix /
    suffix minima and maxima over **all** attributes are accumulated, after
    which every legal boundary's score —
    ``|L| * NCP(mbr(L)) + |R| * NCP(mbr(R))`` — costs O(d) to evaluate.
    """
    import numpy as np

    total = len(records)
    if total < 2 * min_count:
        return None
    points = np.array([record.point for record in records], dtype=np.float64)
    inverse = np.array(
        [1.0 / extent if extent > 0 else 0.0 for extent in domain_extents]
    )
    if weights is not None:
        inverse = inverse * np.asarray(weights, dtype=np.float64)
    best: SplitDecision | None = None
    best_score = float("inf")
    boundary_positions = np.arange(min_count - 1, total - min_count)
    for dimension in dimensions:
        order = np.argsort(points[:, dimension], kind="stable")
        ordered = points[order]
        values = ordered[:, dimension]
        legal = boundary_positions[
            values[boundary_positions] < values[boundary_positions + 1]
        ]
        if legal.size == 0:
            continue
        prefix_min = np.minimum.accumulate(ordered, axis=0)
        prefix_max = np.maximum.accumulate(ordered, axis=0)
        suffix_min = np.minimum.accumulate(ordered[::-1], axis=0)[::-1]
        suffix_max = np.maximum.accumulate(ordered[::-1], axis=0)[::-1]
        left_margin = ((prefix_max[legal] - prefix_min[legal]) * inverse).sum(axis=1)
        right_margin = (
            (suffix_max[legal + 1] - suffix_min[legal + 1]) * inverse
        ).sum(axis=1)
        sizes_left = legal + 1
        scores = sizes_left * left_margin + (total - sizes_left) * right_margin
        at = int(scores.argmin())
        if scores[at] < best_score:
            best_score = float(scores[at])
            left_count = int(sizes_left[at])
            best = SplitDecision(
                dimension, float(values[legal[at]]), left_count, total - left_count
            )
    return best
