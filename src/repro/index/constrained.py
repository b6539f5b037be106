"""Constraint-aware node splitting (§6).

The paper's closing argument: "the R-tree splitting routine can
incorporate, for example, (α,k)-anonymity or l-diversity just as easily as
vanilla k-anonymity" — whatever the definition of an allowable partition,
the index should only ever create allowable leaves, and compaction then
tightens descriptions *within* that definition.

:class:`ConstrainedSplitPolicy` wraps any base policy and vetoes cuts whose
sides would violate a per-group constraint.  Because splits are vetoed
rather than repaired, a leaf that cannot be divided into two satisfying
halves simply stays over-full — the same privacy-safe fallback the plain
tree uses for unsplittable duplicates — so *every leaf of the tree
satisfies the constraint at all times*, under bulk loads and incremental
inserts alike — **for constraints monotone under record additions**
(distinct l-diversity qualifies: adding records never reduces the distinct
count).  Non-monotone definitions such as (α,k)-anonymity can be broken by
later inserts into a leaf regardless of how it was split; enforce those at
release time instead, via the leaf-scan ``constraint`` parameter of
:meth:`repro.core.anonymizer.RTreeAnonymizer.anonymize`.  (Deletion's
underflow path dissolves a leaf and reinserts its records, which preserves
the property for the surviving leaves.)
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Sequence

import numpy as np

from repro.dataset.record import Record
from repro.index.split import (
    MinMarginSplitPolicy,
    SplitDecision,
    SplitPolicy,
    exhaustive_ncp_split,
)

#: A group-acceptance predicate (same contract as the leaf-scan constraint).
GroupConstraint = Callable[[Sequence[Record]], bool]


class ConstrainedSplitPolicy(SplitPolicy):
    """Only split when both resulting groups satisfy the constraint.

    The base policy proposes its best cut; if either side would violate
    the constraint, the best exhaustive-search cut of each single dimension
    is tried before giving up.  Giving up leaves the node over-full —
    allowable partitions are never destroyed to satisfy occupancy.
    """

    def __init__(
        self,
        constraint: GroupConstraint,
        base: SplitPolicy | None = None,
    ) -> None:
        self._constraint = constraint
        self._base = base if base is not None else MinMarginSplitPolicy()

    def choose_split(
        self,
        records: Sequence[Record],
        points: np.ndarray,
        min_count: int,
        domain_extents: Sequence[float],
    ) -> SplitDecision | None:
        proposal = self._base.choose_split(records, points, min_count, domain_extents)
        if proposal is not None and self._acceptable(records, points, proposal):
            return proposal
        # The preferred cut fails: try the best cut of every single
        # dimension (cheap — one evaluation per dimension) before giving up.
        for dimension in range(len(domain_extents)):
            candidate = exhaustive_ncp_split(
                points, min_count, domain_extents, None, [dimension]
            )
            if candidate is not None and self._acceptable(records, points, candidate):
                return candidate
        return None

    def _acceptable(
        self, records: Sequence[Record], points: np.ndarray, decision: SplitDecision
    ) -> bool:
        # The tree's own cut mask, so the groups judged are the children.
        mask = points[:, decision.dimension] <= decision.value
        left = list(compress(records, mask.tolist()))
        right = list(compress(records, (~mask).tolist()))
        return self._constraint(left) and self._constraint(right)
