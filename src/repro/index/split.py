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

Policies decide on the leaf's float64 point matrix, one row per record in
record order (:func:`point_matrix`).  The tree builds it once per
top-level split and cuts and bounds the children from the same rows.

A policy may return ``None`` when no legal cut exists — e.g. every record
identical, or duplicates so heavy that no boundary leaves ``min_count`` on
both sides.  The tree then leaves the node over-full, which never violates
k-anonymity (only the *minimum* occupancy matters for privacy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dataset.record import Record


@dataclass(frozen=True)
class SplitDecision:
    """A chosen cut: records with ``point[dimension] <= value`` go left."""

    dimension: int
    value: float
    left_count: int
    right_count: int


def point_matrix(records: Sequence[Record]) -> np.ndarray:
    """The records' points as one float64 matrix, one row per record."""
    return np.array([record.point for record in records], dtype=np.float64)


def best_threshold(
    values: Sequence[float], min_count: int
) -> tuple[float, int] | None:
    """The most balanced legal threshold along one dimension.

    Candidate thresholds sit between consecutive *distinct* sorted values;
    the one whose left-group size is closest to ``len(values) / 2`` wins
    (the first on ties), subject to both sides holding at least
    ``min_count`` items.  Returns ``(threshold, left_count)`` or ``None``
    when no boundary qualifies (single distinct value, or duplicates too
    concentrated).  One linear sweep over the sorted values.
    """
    total = len(values)
    if total < 2 * min_count:
        return None
    ordered = sorted(values)
    target = total / 2.0
    best: tuple[float, int] | None = None
    best_distance = float("inf")
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
            if distance < best_distance:
                best_distance = distance
                best = (value, left_count)
        index += 1
    return best


def _normalized_widths(
    points: np.ndarray, domain_extents: Sequence[float]
) -> list[float]:
    """Each dimension's data extent over its domain extent (0 if degenerate)."""
    spans = (points.max(axis=0) - points.min(axis=0)).tolist()
    return [
        span / extent if extent > 0 else 0.0
        for span, extent in zip(spans, domain_extents)
    ]


class SplitPolicy(abc.ABC):
    """Chooses the cut dimension and threshold for an overflowing leaf."""

    @abc.abstractmethod
    def choose_split(
        self,
        records: Sequence[Record],
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        """Pick a legal cut, or ``None`` when no legal cut exists.

        ``points`` is the leaf's float64 point matrix, one row per record
        in record order (:func:`point_matrix`); policies decide on it, and
        only a policy that judges whole groups reads ``records``.
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
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        if len(points) < 2 * min_count:
            return None
        count = len(domain_extents)
        if self._max_dimensions is None or self._max_dimensions >= count:
            dimensions: Sequence[int] = range(count)
        else:
            # Widest first; the stable sort keeps ties in dimension order.
            widths = _normalized_widths(points, domain_extents)
            dimensions = sorted(range(count), key=widths.__getitem__, reverse=True)[
                : self._max_dimensions
            ]
        return exhaustive_ncp_split(
            points, min_count, domain_extents, None, dimensions
        )


class MidpointSplitPolicy(SplitPolicy):
    """Cut the dimension with the widest normalized data extent.

    The single-attribute analogue of Mondrian's choose-widest heuristic,
    provided as an ablation point against :class:`MinMarginSplitPolicy`.
    """

    def choose_split(
        self,
        records: Sequence[Record],
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        # Too few records cannot split legally — and an empty group would
        # crash the max()/min() width scan below, a latent trap the other
        # policies already guard via their size checks.
        if len(points) < 2 * min_count:
            return None
        widths = _normalized_widths(points, domain_extents)
        # Widest first; ties go to the higher dimension.
        for _width, dimension in sorted(zip(widths, range(len(widths))), reverse=True):
            found = best_threshold(points[:, dimension].tolist(), min_count)
            if found is not None:
                value, left_count = found
                return SplitDecision(
                    dimension, value, left_count, len(points) - left_count
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
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        chosen = exhaustive_ncp_split(
            points, min_count, domain_extents, None, self._preferred
        )
        if chosen is not None:
            return chosen
        return self._fallback.choose_split(records, points, min_count, domain_extents)


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
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        if len(self._weights) != len(domain_extents):
            raise ValueError(
                f"{len(self._weights)} weights for {len(domain_extents)} dimensions"
            )
        return exhaustive_ncp_split(
            points,
            min_count,
            domain_extents,
            self._weights,
            range(len(domain_extents)),
        )


def exhaustive_ncp_split(
    points: np.ndarray,
    min_count: int,
    domain_extents: Sequence[float],
    weights: Sequence[float] | None,
    dimensions: Sequence[int],
) -> SplitDecision | None:
    """Evaluate every legal boundary on the given dimensions, vectorized.

    ``points`` is the group's float64 point matrix, one row per record.
    For each candidate dimension the rows are sorted once and prefix /
    suffix minima and maxima over **all** attributes are accumulated, after
    which every legal boundary's score —
    ``|L| * NCP(mbr(L)) + |R| * NCP(mbr(R))`` — costs O(d) to evaluate.
    """
    total = len(points)
    if total < 2 * min_count:
        return None
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
