"""Multi-granular anonymized releases (§3).

A data owner may hand a 5-anonymous table to a trusted research group and a
50-anonymous one to the open Internet.  Releasing several anonymizations of
the *same* table invites intersection attacks, so §3 develops the k-bound
condition (Definition 2): a record is k-bound when some fixed group of at
least k records accompanies it into every partition of every release; when
every record is k-bound, k-anonymity survives arbitrary collusion
(Lemma 1).

Two generators satisfy the condition by construction on an R+-tree, since
both only ever publish unions of whole leaves:

* :func:`hierarchical_release` — each partition is one node at a chosen
  tree level (granularities limited to the occupancy products down the
  tree, §3.1);
* the leaf-scan releases of
  :meth:`repro.core.anonymizer.RTreeAnonymizer.anonymize` — any
  granularity ``k1 >= k`` (§3.2).

:func:`verify_k_bound` checks the condition *empirically* over any set of
releases (from any algorithm) by intersecting each record's partitions —
this is also the adversary's best strategy, so the check doubles as an
attack simulation (see :mod:`repro.privacy.attack`).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.schema import Schema
from repro.geometry.box import Box
from repro.index.node import LeafNode, Node
from repro.index.rtree import RPlusTree


def hierarchical_release(
    tree: RPlusTree, level: int, schema: Schema
) -> AnonymizedTable:
    """The §3.1 release: one partition per node at the given tree level.

    Level 0 publishes the leaves themselves (granularity = base k); higher
    levels publish whole subtrees, multiplying the guaranteed occupancy by
    the minimum fanout per level climbed.
    """
    nodes = tree.nodes_at_level(level)
    if not nodes:
        raise ValueError(f"tree has no nodes at level {level}")
    partitions = []
    for node in nodes:
        records = tuple(_records_under(node))
        if not records:
            continue
        partitions.append(
            Partition.trusted(records, Box.from_points(r.point for r in records))
        )
    return AnonymizedTable(schema, partitions)


def hierarchical_granularities(tree: RPlusTree) -> list[tuple[int, int]]:
    """``(level, guaranteed granularity)`` pairs available from the tree.

    The guaranteed granularity of a level is the *smallest* record count of
    any node at that level — the k the release provably satisfies.
    """
    result: list[tuple[int, int]] = []
    for level in range(tree.height + 1):
        nodes = tree.nodes_at_level(level)
        if not nodes:
            continue
        result.append((level, min(node.record_count() for node in nodes)))
    return result


def verify_k_bound(releases: Sequence[AnonymizedTable], k: int) -> bool:
    """Check Lemma 1's premise over a set of releases of one table.

    For every record appearing in the releases, intersect the member sets
    of the partitions that contain it; the record is k-bound over this set
    of releases iff the intersection holds at least ``k`` records.  Returns
    ``True`` when every record passes.
    """
    return min_candidate_set_size(releases) >= k


def min_candidate_set_size(releases: Sequence[AnonymizedTable]) -> int:
    """The smallest per-record candidate set an intersecting adversary gets.

    This is the quantity an intersection attack drives down: the adversary
    who holds every release can narrow a record's company to exactly the
    intersection of its partitions.  k-anonymity over the set of releases
    holds iff this minimum is at least k.  Raises ``ValueError`` on an
    empty list of releases.
    """
    from repro.privacy.attack import intersection_attack  # imports repro.core

    return intersection_attack(releases).min_candidates


def _records_under(node: Node):
    if isinstance(node, LeafNode):
        yield from node.records
    else:
        for child in node.children():  # type: ignore[union-attr]
            yield from _records_under(child)
