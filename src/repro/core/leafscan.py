"""The leaf-scan algorithm (Figure 5, §3.2).

Given the spatially ordered leaf nodes of the index (each already holding
at least the base ``k`` records) and a requested granularity ``k1``, scan
the leaves in order and concatenate *whole leaves* into partitions until
each partition holds at least ``k1`` records; fold a too-small tail into the
final partition.

Because every partition is a union of whole leaves, every record stays
"bound" (Definition 2) to its leaf-mates, so any collection of leaf-scan
releases at different granularities preserves the base k-anonymity
(Lemma 1).  And because the scan is a single pass over the leaves, its cost
is independent of ``k1`` — which is why the R+-tree curve in Figure 7(a)
is flat across anonymity levels.

An optional ``constraint`` predicate generalizes the stopping rule: a
partition closes only once it holds ``k1`` records *and* satisfies the
constraint (e.g. distinct l-diversity), implementing the paper's remark
that "the R-tree splitting routine can incorporate, for example,
(α,k)-anonymity or l-diversity just as easily as vanilla k-anonymity".
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dataset.record import Record
from repro.index.node import Cut, InternalNode, LeafNode

if TYPE_CHECKING:
    from repro.index.rtree import RPlusTree

#: A partition-acceptance predicate (e.g. an l-diversity check).
Constraint = Callable[[Sequence[Record]], bool]

#: A run: a contiguous slice of ``tree.leaves()``, one partition's leaves.
Run = list[LeafNode]


def _scan_edges(
    sizes: Sequence[int],
    k1: int,
    accepts: Callable[[int, int], bool],
) -> list[int]:
    """Figure 5 over group sizes: the edges ``0 = e0 < e1 < ... = len(sizes)``.

    Partition ``i`` is groups ``edges[i]..edges[i+1]-1``.
    ``accepts(start, stop)`` is the constraint over the records of groups
    ``start..stop-1``; it is asked only once those hold ``k1`` records.
    """
    if k1 < 1:
        raise ValueError("granularity k1 must be at least 1")
    total = sum(sizes)
    if total < k1:
        raise ValueError(
            f"cannot form a {k1}-anonymous release from {total} records"
        )
    edges = [0]
    held = 0
    remaining = total
    for index, size in enumerate(sizes):
        held += size
        remaining -= size
        if held >= k1 and accepts(edges[-1], index + 1):
            # LS4: if the leftover tail cannot form its own partition, keep
            # absorbing it into this (final) one instead of closing now.
            if 0 < remaining < k1:
                continue
            edges.append(index + 1)
            held = 0
    _close_tail(edges, len(sizes), held >= k1, accepts)
    return edges


def _close_tail(
    edges: list[int],
    stop: int,
    floor_met: bool,
    accepts: Callable[[int, int], bool],
) -> None:
    """Close the open group ``[edges[-1], stop)``, or fold it into the last one."""
    start = edges[-1]
    if start == stop:
        return
    if floor_met and accepts(start, stop):
        edges.append(stop)
    elif len(edges) > 1:
        edges[-1] = stop
    else:
        raise ValueError(
            "the constraint cannot be satisfied even by a single "
            "partition holding every record"
        )


def _accepts(
    groups: Sequence[Sequence[Record]], constraint: Constraint | None
) -> Callable[[int, int], bool]:
    """The constraint over groups ``start..stop-1``, materialized on demand."""
    if constraint is None:
        return lambda start, stop: True
    return lambda start, stop: constraint(
        [record for group in groups[start:stop] for record in group]
    )


def leaf_scan(
    leaf_groups: Sequence[Sequence[Record]],
    k1: int,
    constraint: Constraint | None = None,
) -> list[list[Record]]:
    """Regroup ordered leaf record groups into partitions of at least ``k1``.

    ``leaf_groups`` must be the index leaves in sequential (spatial) order;
    each group is consumed whole.  Raises ``ValueError`` when the total
    record count cannot support a single partition of ``k1`` records, or
    when the constraint cannot be satisfied even by the union of everything.
    """
    edges = _scan_edges(
        [len(group) for group in leaf_groups], k1, _accepts(leaf_groups, constraint)
    )
    return [
        [record for group in leaf_groups[start:stop] for record in group]
        for start, stop in zip(edges, edges[1:])
    ]


def sequential_scan(
    tree: "RPlusTree",
    k1: int,
    constraint: Constraint | None = None,
) -> list[Run]:
    """:func:`leaf_scan` over the tree's leaves, as runs of whole leaves."""
    leaves = tree.leaves()
    records = [leaf.records for leaf in leaves]
    edges = _scan_edges(
        [len(group) for group in records], k1, _accepts(records, constraint)
    )
    return [leaves[start:stop] for start, stop in zip(edges, edges[1:])]


def subtree_scan(
    tree: "RPlusTree",
    k1: int,
    constraint: Constraint | None = None,
) -> list[Run]:
    """Regroup leaves into runs of at least ``k1`` records, aligned with the cuts.

    A quality-improving refinement of :func:`leaf_scan` with the identical
    privacy guarantee: partitions are still unions of whole leaves taken in
    the tree's sequential order, so every record stays bound to its
    leaf-mates (Lemma 1 applies unchanged).  The difference is *where* group
    boundaries fall — on the boundaries of the binary cut hierarchy whenever
    possible, so that a group's records span a contiguous axis-aligned
    region and its minimum bounding box stays disjoint from its neighbours'.
    The purely sequential Figure 5 scan can chain leaves across cut
    boundaries, producing L-shaped unions whose bounding boxes overlap and
    measurably inflate COUNT-query error (see the ablation bench).

    The rule: walk the global cut hierarchy depth-first; emit any subtree
    whose record count (plus any carried small remainder) lands in
    ``[k1, 2*k1)`` and satisfies the constraint; recurse into larger
    subtrees; carry smaller ones into the next group.

    Each run is a contiguous slice of ``tree.leaves()``; together the runs
    cover every leaf in order.  One pass numbers the leaves and notes
    where each :class:`Cut`'s leaves end, so a subtree's record count is a
    difference of two prefix sums; records are gathered only when the
    constraint must be evaluated.
    """
    if k1 < 1:
        raise ValueError("granularity k1 must be at least 1")
    if tree.root is None or len(tree) < k1:
        raise ValueError(
            f"cannot form a {k1}-anonymous release from {len(tree)} records"
        )

    # Flatten the hierarchy into preorder positions, skipping the internal
    # nodes (a node is its cut tree).  Position ``i`` holds a cut or a leaf;
    # ``stops[i]`` is one past the last leaf under it and ``after[i]`` the
    # position that follows its subtree, so ``after[i] == i + 1`` marks a
    # leaf.  A cut's two values are known once its subtree is flattened:
    # the stack holds an int, the cut's position, to mark that moment.
    leaves: list[LeafNode] = []
    stops: list[int] = []
    after: list[int] = []
    stack: list[object] = [tree.root]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is LeafNode:
            leaves.append(item)  # type: ignore[arg-type]
            stops.append(len(leaves))
            after.append(len(stops))
        elif kind is InternalNode:
            stack.append(item.cuts.inner)  # type: ignore[attr-defined]
        elif kind is Cut:
            stack.append(len(stops))
            stops.append(0)
            after.append(0)
            stack.append(item.right.inner)  # type: ignore[attr-defined]
            stack.append(item.left.inner)  # type: ignore[attr-defined]
        else:
            stops[item] = len(leaves)  # type: ignore[index]
            after[item] = len(stops)  # type: ignore[index]
    #: offsets[i] = records in leaves[:i].
    offsets = list(accumulate([len(leaf.records) for leaf in leaves], initial=0))
    accepts = _accepts([leaf.records for leaf in leaves], constraint)

    # The depth-first walk over those positions.  The open (carried) run
    # starts at leaf ``start == edges[-1]``.  A cut holding ``2*k1`` or
    # more records with the carry is entered (the next position is its
    # left child); anything smaller joins the run whole, and the run
    # closes once it holds ``k1`` records and satisfies the constraint.
    edges = [0]
    start = 0
    position = 0
    end = len(stops)
    while position < end:
        stop = stops[position]
        held = offsets[stop] - offsets[start]
        if held >= 2 * k1 and after[position] != position + 1:
            position += 1
            continue
        position = after[position]
        if held >= k1 and (constraint is None or accepts(start, stop)):
            edges.append(stop)
            start = stop

    _close_tail(edges, len(leaves), offsets[-1] - offsets[start] >= k1, accepts)
    return [leaves[start:stop] for start, stop in zip(edges, edges[1:])]
