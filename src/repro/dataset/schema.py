"""Attribute and schema definitions.

Following §5 of the paper, every quasi-identifier attribute is carried as an
integer-coded value: numeric attributes natively, categorical attributes via
"an intuitive ordering on the values" (see
:meth:`repro.hierarchy.GeneralizationHierarchy.ordering`).  The schema keeps
enough metadata to recover categorical semantics — the hierarchy, when one
exists — for compaction and for the certainty-penalty metric's categorical
branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.hierarchy.tree import GeneralizationHierarchy


class AttributeKind(enum.Enum):
    """How an attribute's values behave under generalization."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Attribute:
    """One quasi-identifier attribute.

    ``domain_low``/``domain_high`` bound the attribute's possible values and
    are used for normalization in quality metrics and for top-level regions
    in the spatial index.  For categorical attributes the domain covers the
    integer codes, and ``hierarchy`` (optional) lets compaction publish a
    named generalization instead of a code interval.
    """

    name: str
    kind: AttributeKind = AttributeKind.NUMERIC
    domain_low: float = 0.0
    domain_high: float = 1.0
    hierarchy: GeneralizationHierarchy | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.domain_low > self.domain_high:
            raise ValueError(
                f"attribute {self.name!r}: domain low {self.domain_low} exceeds "
                f"high {self.domain_high}"
            )

    @property
    def domain_extent(self) -> float:
        """Width of the attribute's declared domain."""
        return self.domain_high - self.domain_low

    @classmethod
    def numeric(cls, name: str, low: float, high: float) -> "Attribute":
        """A numeric attribute with the given domain."""
        return cls(name, AttributeKind.NUMERIC, float(low), float(high))

    @classmethod
    def categorical(
        cls,
        name: str,
        values: Sequence[Hashable] | None = None,
        hierarchy: GeneralizationHierarchy | None = None,
    ) -> "Attribute":
        """A categorical attribute.

        Provide either the flat value list (coded ``0..len-1`` in order) or a
        hierarchy (coded by its left-to-right leaf ordering).
        """
        if hierarchy is not None:
            count = len(hierarchy)
        elif values is not None:
            count = len(values)
            hierarchy = GeneralizationHierarchy.flat(list(values))
        else:
            raise ValueError(f"categorical attribute {name!r} needs values or a hierarchy")
        return cls(name, AttributeKind.CATEGORICAL, 0.0, float(count - 1), hierarchy)


@dataclass(frozen=True)
class Schema:
    """The quasi-identifier attributes plus named sensitive attributes.

    The quasi-identifier ordering defines the dimensions of the spatial
    domain: attribute ``i`` is dimension ``i`` of every point, box and query.
    """

    quasi_identifiers: tuple[Attribute, ...]
    sensitive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.quasi_identifiers:
            raise ValueError("schema needs at least one quasi-identifier attribute")
        names = [attribute.name for attribute in self.quasi_identifiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate quasi-identifier names in {names}")
        if len(set(self.sensitive)) != len(self.sensitive):
            raise ValueError(f"duplicate sensitive names in {self.sensitive}")

    @property
    def dimensions(self) -> int:
        """Number of quasi-identifier attributes (spatial dimensions)."""
        return len(self.quasi_identifiers)

    def attribute(self, name: str) -> Attribute:
        """Look up a quasi-identifier attribute by name."""
        for candidate in self.quasi_identifiers:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        """Dimension index of a quasi-identifier attribute."""
        for position, candidate in enumerate(self.quasi_identifiers):
            if candidate.name == name:
                return position
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        """Quasi-identifier attribute names in dimension order."""
        return tuple(attribute.name for attribute in self.quasi_identifiers)

    def domain_lows(self) -> tuple[float, ...]:
        return tuple(attribute.domain_low for attribute in self.quasi_identifiers)

    def domain_highs(self) -> tuple[float, ...]:
        return tuple(attribute.domain_high for attribute in self.quasi_identifiers)

    def domain_extents(self) -> tuple[float, ...]:
        """Each attribute's domain width, computed once per schema."""
        extents = self.__dict__.get("_extents")
        if extents is None:
            extents = tuple(
                attribute.domain_extent for attribute in self.quasi_identifiers
            )
            object.__setattr__(self, "_extents", extents)
        return extents
