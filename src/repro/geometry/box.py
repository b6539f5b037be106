"""Axis-aligned n-dimensional bounding boxes.

A :class:`Box` is an immutable pair of coordinate vectors ``lows`` and
``highs`` with ``lows[i] <= highs[i]`` for every dimension ``i``.  Boxes are
closed on both ends, which matches the paper's interval notation: a record
generalized to ``Age = [20 - 30]`` matches a query range that touches either
endpoint.

Degenerate (zero-width) extents are common in anonymization because leaf
partitions frequently contain identical values on some attribute.  Plain
``area`` would collapse to zero for such boxes and make "minimum area
enlargement" split heuristics useless, so :meth:`Box.margin` (the sum of
extents, i.e. half the perimeter generalized to n dimensions) is provided as
the standard tie-breaker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Point = Sequence[float]


@dataclass(frozen=True, slots=True)
class Box:
    """A closed axis-aligned box ``[lows[i], highs[i]]`` in every dimension."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError(
                f"dimension mismatch: {len(self.lows)} lows vs {len(self.highs)} highs"
            )
        if not self.lows:
            raise ValueError("boxes must have at least one dimension")
        for low, high in zip(self.lows, self.highs):
            if low > high:
                raise ValueError(f"inverted extent: low {low} > high {high}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: Point) -> "Box":
        """The degenerate box containing exactly one point."""
        coords = tuple(float(value) for value in point)
        return cls(coords, coords)

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Box":
        """The minimum bounding box of a non-empty collection of points."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot bound an empty collection of points") from None
        lows = [float(value) for value in first]
        highs = list(lows)
        for point in iterator:
            for index, value in enumerate(point):
                if value < lows[index]:
                    lows[index] = float(value)
                elif value > highs[index]:
                    highs[index] = float(value)
        return cls(tuple(lows), tuple(highs))

    # -- basic properties --------------------------------------------------

    @property
    def dimensions(self) -> int:
        """Number of dimensions of the box."""
        return len(self.lows)

    def extent(self, dimension: int) -> float:
        """Width of the box along one dimension (0 for degenerate extents)."""
        return self.highs[dimension] - self.lows[dimension]

    def extents(self) -> tuple[float, ...]:
        """Widths along every dimension."""
        return tuple(h - l for l, h in zip(self.lows, self.highs))

    def center(self) -> tuple[float, ...]:
        """The midpoint of the box."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lows, self.highs))

    def area(self) -> float:
        """Product of extents (the n-dimensional volume).

        Zero whenever any extent is degenerate; callers that need to rank
        near-degenerate boxes should fall back to :meth:`margin`.
        """
        result = 1.0
        for low, high in zip(self.lows, self.highs):
            result *= high - low
        return result

    def margin(self) -> float:
        """Sum of extents — the n-dimensional analogue of half the perimeter.

        This is the quantity the certainty-penalty metric rewards
        ("partitions with small perimeters", Xu et al.) and the robust
        tie-breaker for split heuristics on degenerate boxes.
        """
        return sum(high - low for low, high in zip(self.lows, self.highs))

    def discrete_volume(self) -> int:
        """Number of integer lattice cells covered, ``prod(extent + 1)``.

        Quasi-identifier domains in this reproduction are integer-coded
        (the paper recodes categorical values to integers), so the natural
        cell count of ``[20, 30]`` is 11, not 10.  Used by the KL-divergence
        metric's partition-uniform density model.
        """
        result = 1
        for low, high in zip(self.lows, self.highs):
            result *= int(round(high - low)) + 1
        return result

    # -- relationships -----------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if the point lies inside the (closed) box."""
        return all(
            low <= value <= high
            for low, value, high in zip(self.lows, point, self.highs)
        )

    def contains_box(self, other: "Box") -> bool:
        """True if ``other`` lies entirely inside this box."""
        return all(l1 <= l2 for l1, l2 in zip(self.lows, other.lows)) and all(
            h2 <= h1 for h1, h2 in zip(self.highs, other.highs)
        )

    def intersects(self, other: "Box") -> bool:
        """True if the closed boxes share at least one point.

        This is the §5.4 match predicate: an anonymized record (a box)
        matches a range query (another box) iff they intersect on every
        attribute.
        """
        return all(
            l1 <= h2 and l2 <= h1
            for l1, h1, l2, h2 in zip(self.lows, self.highs, other.lows, other.highs)
        )

    def intersection(self, other: "Box") -> "Box | None":
        """The overlapping box, or ``None`` when the boxes are disjoint."""
        lows = tuple(max(l1, l2) for l1, l2 in zip(self.lows, other.lows))
        highs = tuple(min(h1, h2) for h1, h2 in zip(self.highs, other.highs))
        if any(low > high for low, high in zip(lows, highs)):
            return None
        return Box(lows, highs)

    def union(self, other: "Box") -> "Box":
        """The minimum box enclosing both boxes.

        Ties keep this box's value, as ``min``/``max`` would; comparisons
        in a list comprehension cost a third of a ``min`` call per value,
        and release compaction unions one box per leaf.
        """
        return Box(
            tuple([l2 if l2 < l1 else l1 for l1, l2 in zip(self.lows, other.lows)]),
            tuple([h2 if h2 > h1 else h1 for h1, h2 in zip(self.highs, other.highs)]),
        )

    def union_point(self, point: Point) -> "Box":
        """The minimum box enclosing this box and one extra point."""
        return Box(
            tuple(min(low, float(value)) for low, value in zip(self.lows, point)),
            tuple(max(high, float(value)) for high, value in zip(self.highs, point)),
        )

    def enlargement(self, point: Point) -> float:
        """Margin increase needed to absorb ``point``.

        Margin (not area) based, so the heuristic stays informative on the
        degenerate boxes that dominate early index construction.
        """
        total = 0.0
        for low, high, value in zip(self.lows, self.highs, point):
            if value < low:
                total += low - value
            elif value > high:
                total += value - high
        return total

    # -- iteration & display -------------------------------------------------

    def intervals(self) -> Iterator[tuple[float, float]]:
        """Iterate ``(low, high)`` pairs per dimension."""
        return zip(self.lows, self.highs)

    def __str__(self) -> str:
        parts = ", ".join(
            f"[{low:g}, {high:g}]" for low, high in zip(self.lows, self.highs)
        )
        return f"Box({parts})"


def bounding_box(points: Iterable[Point]) -> Box:
    """Minimum bounding box of a non-empty collection of points."""
    return Box.from_points(points)


def union_all(boxes: Iterable[Box]) -> Box:
    """The minimum box enclosing every box in a non-empty collection."""
    iterator = iter(boxes)
    try:
        result = next(iterator)
    except StopIteration:
        raise ValueError("cannot union an empty collection of boxes") from None
    for box in iterator:
        result = result.union(box)
    return result
