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

from typing import TYPE_CHECKING, Callable, Sequence

from repro.dataset.record import Record
from repro.index.node import Cut, InternalNode, LeafNode
from repro.obs import OBS

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


class Pieces:
    """One recipe's pieces: what its latest subtree release took from each
    internal node it entered (see :func:`subtree_scan`).

    ``root`` maps the root's node id to ``(0, piece)``, and each piece
    maps its entered children the same way, so the pieces form a tree
    that each release rebuilds along the nodes it walks and shares
    elsewhere.  ``parts`` is that release's list, one entry per run,
    which every piece indexes into; ``fresh`` lists the positions of the
    runs the walk closed itself, which the caller replaces with what it
    publishes for them.  ``folded`` says the last entry is the final
    fold, not the run its piece closed.

    A piece is the tuple ``(version, carry, head, count, last, tail,
    held, children)``: the node's version and the records carried into
    it (its key; ``-1`` never matches), the node's leaves that closed the
    carried run (``None`` if no run closed in the node), how many runs
    after that one it closed (at its start in ``parts``) and the last
    one's leaves, the leaves it carried on and the records they make with
    what came in, and its entered children.
    """

    __slots__ = ("root", "parts", "fresh", "folded")

    def __init__(self) -> None:
        self.root: dict[int, tuple[int, tuple]] | None = None
        self.parts: list = []
        self.fresh: list[int] = []
        self.folded = False


def subtree_scan(
    tree: "RPlusTree",
    k1: int,
    constraint: Constraint | None = None,
    pieces: Pieces | None = None,
) -> list:
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
    subtrees; carry smaller ones into the next group.  Each run is a
    contiguous slice of ``tree.leaves()``; together the runs cover every
    leaf in order.

    ``pieces`` keeps, per internal node entered, the node's *piece*: the
    runs the walk closed inside it (as a range of ``pieces.parts``), the
    leaves that closed the run carried into it, and the leaves and record
    count it carried on.  Without a constraint the walk inside a node
    depends only on its records and the records carried in, so a node
    whose version and incoming carry equal its piece's is spliced in
    O(1); with one, only a node entered with nothing carried is, since
    the constraint reads the carried records.  Every other entered node
    is walked, splicing its own children where it can.  So a release
    walks only the nodes changed since the recipe's last release, and
    the clean ones whose incoming carry moved.  Node record counts are
    the nodes' own, kept against their versions.

    Returns ``pieces.parts``, one entry per run in order: a run the walk
    closed (the run carried into a spliced node, the final fold of a
    too-small tail, and every run in a walked node) is its list of
    leaves, at a position listed in ``pieces.fresh``; a spliced run is
    the entry the previous release's list held for it.  Without
    ``pieces`` every run is fresh.
    """
    if k1 < 1:
        raise ValueError("granularity k1 must be at least 1")
    root = tree.root
    if root is None or len(tree) < k1:
        raise ValueError(
            f"cannot form a {k1}-anonymous release from {len(tree)} records"
        )
    kept = pieces if pieces is not None else Pieces()
    walk = _Walk(k1, constraint, kept)
    scope: list = [kept.root, 0, None, 0]
    walk.scan(root, scope, False)
    if walk.run and walk.held >= k1 and walk.accepts(walk.run):
        walk.close()
    parts, fresh = walk.parts, walk.fresh
    folded = bool(walk.run)
    if folded:
        if not parts:
            raise ValueError(
                "the constraint cannot be satisfied even by a single "
                "partition holding every record"
            )
        # Fold the tail into the last run; ``walk.last`` keeps the
        # unfolded one, which the piece that closed it still names.
        if not fresh or fresh[-1] != len(parts) - 1:
            fresh.append(len(parts) - 1)
        parts[-1] = [*walk.last, *walk.run]
    kept.root = scope[2]
    kept.parts = parts
    kept.fresh = fresh
    kept.folded = folded
    if OBS.enabled:
        OBS.count("core.pieces_reused", walk.spliced)
        OBS.count("core.pieces_built", walk.made)
    return parts


class _Walk:
    """The state of one :func:`subtree_scan` walk: the runs closed so far
    (``parts``), the open run and its record count (``held``)."""

    __slots__ = (
        "k1", "double", "constraint", "old_parts", "old_end",
        "parts", "fresh", "run", "held", "last", "spliced", "made",
    )

    def __init__(self, k1: int, constraint: Constraint | None, kept: Pieces) -> None:
        self.k1 = k1
        self.double = 2 * k1
        self.constraint = constraint
        self.old_parts = kept.parts
        #: The old list's last entry is a fold: a splice that reaches it
        #: takes the run its piece closed instead.
        self.old_end = len(kept.parts) if kept.folded else -1
        self.parts: list = []
        self.fresh: list[int] = []
        self.run: Run = []
        self.held = 0
        #: The leaves of the last run closed, for the final fold.
        self.last: Sequence[LeafNode] = ()
        self.spliced = 0
        self.made = 0

    def accepts(self, leaves: Sequence[LeafNode]) -> bool:
        constraint = self.constraint
        return constraint is None or constraint(
            [record for leaf in leaves for record in leaf.records]
        )

    def close(self) -> None:
        parts = self.parts
        self.fresh.append(len(parts))
        parts.append(self.run)
        self.last = self.run
        self.run = []
        self.held = 0

    def scan(self, item: object, scope: list, entered: bool) -> None:
        """Walk the positions of one cut tree in preorder.

        A position is a cut, a leaf or a child node.  One holding, with
        the carry, ``2*k1`` records or more is entered: a cut's children
        are the next positions, and a node is entered through its piece
        (:meth:`enter`).  Any other joins the open run whole, which then
        closes once it holds ``k1`` records and meets the constraint.
        ``entered`` skips the root cut, which the caller has entered.
        ``scope`` is the enclosing node's ``[old children, old start,
        new children, start]``: its previous piece's children and where
        that piece's runs began in ``old_parts``, and the children and
        start of the piece this walk makes for it.
        """
        items: list = []
        sizes: list[int] = []
        after: list[int] = []
        _flatten(item, items, sizes, after)
        k1, double, constraint = self.k1, self.double, self.constraint
        position = 1 if entered else 0
        end = len(items)
        while position < end:
            item = items[position]
            size = sizes[position]
            kind = type(item)
            if kind is not LeafNode and self.held + size >= double:
                if kind is Cut:
                    position += 1
                    continue
                self.enter(item, scope)  # type: ignore[arg-type]
                position = after[position]
                continue
            position = after[position]
            if kind is LeafNode:
                self.run.append(item)
            else:
                _gather(item, self.run)
            self.held += size
            if self.held >= k1 and (constraint is None or self.accepts(self.run)):
                self.close()

    def enter(self, node: InternalNode, scope: list) -> None:
        """Splice the node's piece if it still holds, else walk the node."""
        carry = self.held
        parts = self.parts
        start = len(parts) + (carry > 0)
        old_children, old_base, _children, base = scope
        entry = old_children.get(node.node_id) if old_children else None
        piece = None
        old_start = 0
        if entry is not None:
            offset, piece = entry
            old_start = old_base + offset
            if piece[0] == node.version and piece[1] == carry:
                self.splice(piece, old_start)
                _adopt(scope, node, start - base, piece)
                return
        entry_run = self.run
        entry_len = len(entry_run)
        inner: list = [piece[7] if piece else None, old_start, None, start]
        cuts = node.cuts.inner
        self.scan(cuts, inner, type(cuts) is Cut)
        # Without a constraint the carry is the key; with one, a piece
        # entered with a carry never matches, but keeps its children's.
        key = carry if self.constraint is None or not carry else -1
        run = self.run
        if run is entry_run:
            made = (
                node.version, key, None, 0, None, tuple(run[entry_len:]),
                self.held, inner[2],
            )
        else:
            count = len(parts) - start
            made = (
                node.version,
                key,
                tuple(entry_run[entry_len:]) if carry else (),
                count,
                tuple(self.last) if count else None,
                tuple(run),
                self.held,
                inner[2],
            )
        self.made += 1
        _adopt(scope, node, start - base, made)

    def splice(self, piece: tuple, old_start: int) -> None:
        """Take a clean node's runs and carry from its piece."""
        _version, carry, head, count, last, tail, held, _children = piece
        if head is None:
            self.run.extend(tail)
        else:
            if carry:
                self.run.extend(head)
                self.close()
            if count:
                parts = self.parts
                parts.extend(self.old_parts[old_start : old_start + count])
                self.last = last
                if old_start + count == self.old_end:
                    self.fresh.append(len(parts) - 1)
                    parts[-1] = list(last)
            self.run = list(tail)
        self.held = held
        self.spliced += 1


def _adopt(scope: list, node: InternalNode, offset: int, piece: tuple) -> None:
    """Record ``piece`` as the node's in the enclosing node's new piece."""
    children = scope[2]
    if children is None:
        children = scope[2] = {}
    children[node.node_id] = (offset, piece)


def _flatten(item: object, items: list, sizes: list[int], after: list[int]) -> int:
    """Number a cut tree's positions in preorder; return ``item``'s records.

    ``sizes[i]`` is the records under position ``i`` and ``after[i]``
    the position that follows its subtree.  Child nodes are positions of
    their own, counted by their kept record count.
    """
    position = len(items)
    items.append(item)
    sizes.append(0)
    after.append(0)
    kind = type(item)
    if kind is Cut:
        left, right = item.left.inner, item.right.inner  # type: ignore[attr-defined]
        size = _flatten(left, items, sizes, after) + _flatten(right, items, sizes, after)
    elif kind is LeafNode:
        size = len(item.records)  # type: ignore[attr-defined]
    else:
        size = item.record_count()  # type: ignore[attr-defined]
    sizes[position] = size
    after[position] = len(items)
    return size


def _gather(item: object, out: Run) -> None:
    """Append the leaves under a cut-tree position to ``out``, in order."""
    kind = type(item)
    if kind is LeafNode:
        out.append(item)  # type: ignore[arg-type]
    elif kind is InternalNode:
        _gather(item.cuts.inner, out)  # type: ignore[attr-defined]
    else:
        _gather(item.left.inner, out)  # type: ignore[attr-defined]
        _gather(item.right.inner, out)  # type: ignore[attr-defined]
