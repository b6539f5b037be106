"""Tree nodes and the binary cut structure that keeps regions disjoint.

An :class:`InternalNode` does not store a flat child list.  Instead it keeps
the *history of binary splits* that produced its children as a small binary
tree of :class:`Cut` objects whose leaf positions hold the child nodes.
This is the kd-B-tree / R+-tree trick that makes everything non-overlapping
for free:

* routing a point means walking the cut tree (``coord <= cut.value`` goes
  left), so exactly one child can ever receive a given point;
* splitting an overflowing internal node means promoting its *root* cut —
  the two cut subtrees become the two new nodes and the parent inherits the
  promoted cut, so sibling regions remain an exact tiling at every level.

Every position in a cut tree is a mutable :class:`Slot` box holding either
a :class:`Node` or a :class:`Cut`.  The indirection is load-bearing: the
buffer-tree loader routes records from node references captured *before*
splits restructure the tree, and because all structural updates mutate
shared ``Slot``/``Cut`` objects in place (never rebind a private
attribute), those stale references keep routing correctly — the split
subtrees are shared between the old and new nodes, not copied.

Each node additionally caches its minimum bounding rectangle (the *MBR*,
what the anonymizer publishes).  The MBR is always contained in the node's
implicit region and shrink-wraps the actual data — this gap between region
and MBR is precisely the paper's "compaction" effect (§4) arising naturally
from R-tree bookkeeping.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.dataset.record import Record
from repro.geometry.box import Box

_node_ids = itertools.count()


class Node:
    """Common base: identity, level (0 = leaf) and MBR.

    Nodes link only downward, so a tree holds no reference cycle and a
    dropped tree is freed by reference counting alone.
    """

    __slots__ = ("node_id", "level", "mbr")

    def __init__(self, level: int) -> None:
        self.node_id: int = next(_node_ids)
        self.level = level
        self.mbr: Box | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def record_count(self) -> int:
        raise NotImplementedError


class LeafNode(Node):
    """A leaf: the records of one k-anonymous partition."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        super().__init__(level=0)
        self.records: list[Record] = []

    def record_count(self) -> int:
        return len(self.records)

    def recompute_mbr(self) -> None:
        """Shrink-wrap the MBR to the current records."""
        if self.records:
            self.mbr = Box.from_points(record.point for record in self.records)
        else:
            self.mbr = None


class Slot:
    """A mutable box in a cut tree, holding either a child node or a cut.

    All structural edits go through slots so that every view of a shared
    subtree — including stale node references held across splits — observes
    the same current structure.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: "Node | Cut") -> None:
        self.inner = inner

    def __repr__(self) -> str:
        return f"Slot({self.inner!r})"


class Cut:
    """A binary split: points with ``point[dimension] <= value`` go left."""

    __slots__ = ("dimension", "value", "left", "right")

    def __init__(self, dimension: int, value: float, left: Slot, right: Slot) -> None:
        self.dimension = dimension
        self.value = value
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"Cut(dim={self.dimension}, value={self.value:g})"


def make_cut(
    dimension: int, value: float, left: "Node | Cut", right: "Node | Cut"
) -> Cut:
    """Build a cut over two fresh slots."""
    return Cut(dimension, value, Slot(left), Slot(right))


def iter_cut_children(slot: Slot) -> Iterator[Node]:
    """Yield the child nodes under a cut tree, left to right.

    The left-to-right order is the "sequential ordering of nodes on the
    same tree level" that the leaf-scan algorithm (§3.2) relies on: adjacent
    children are spatially adjacent because they came from the same cuts.
    """
    stack: list[Slot] = [slot]
    while stack:
        item = stack.pop().inner
        if isinstance(item, Cut):
            stack.append(item.right)
            stack.append(item.left)
        else:
            yield item


def count_cut_children(slot: Slot) -> int:
    """Number of child nodes under a cut tree."""
    return sum(1 for _child in iter_cut_children(slot))


def route_cut(slot: Slot, point: Sequence[float]) -> Node:
    """Follow the cuts to the unique child whose region contains the point."""
    item = slot.inner
    while isinstance(item, Cut):
        item = (item.left if point[item.dimension] <= item.value else item.right).inner
    return item


def find_slot(slot: Slot, target: Node) -> Slot | None:
    """The slot currently holding ``target``, or ``None`` if absent."""
    stack: list[Slot] = [slot]
    while stack:
        candidate = stack.pop()
        item = candidate.inner
        if item is target:
            return candidate
        if isinstance(item, Cut):
            stack.append(item.left)
            stack.append(item.right)
    return None


class InternalNode(Node):
    """An internal node: a cut tree over its children plus cached metadata."""

    __slots__ = ("cuts", "fanout")

    def __init__(self, level: int, cuts: Slot) -> None:
        super().__init__(level)
        self.cuts = cuts
        self.fanout = count_cut_children(cuts)

    def children(self) -> Iterator[Node]:
        """Children left to right (spatial order)."""
        return iter_cut_children(self.cuts)

    def route(self, point: Sequence[float]) -> Node:
        """The unique child whose region contains the point."""
        return route_cut(self.cuts, point)

    def replace_child(self, old: Node, replacement: "Node | Cut", added: int) -> None:
        """Swap a child for a node or cut, in place, adjusting the fanout.

        The mutation happens inside the shared :class:`Slot`, so every
        stale view of this subtree sees it immediately.
        """
        slot = find_slot(self.cuts, old)
        if slot is None:
            raise KeyError(f"node {old.node_id} is not a child of node {self.node_id}")
        slot.inner = replacement
        self.fanout += added

    def remove_child(self, old: Node) -> None:
        """Drop a child, promoting its cut sibling into the parent cut's slot."""
        if self.cuts.inner is old:
            raise ValueError(
                f"cannot remove the only child of internal node {self.node_id}"
            )
        stack: list[Slot] = [self.cuts]
        while stack:
            slot = stack.pop()
            item = slot.inner
            if not isinstance(item, Cut):
                continue
            if item.left.inner is old:
                slot.inner = item.right.inner
                self.fanout -= 1
                return
            if item.right.inner is old:
                slot.inner = item.left.inner
                self.fanout -= 1
                return
            stack.append(item.left)
            stack.append(item.right)
        raise KeyError(f"node {old.node_id} is not a child of node {self.node_id}")

    def record_count(self) -> int:
        return sum(child.record_count() for child in self.children())

    def recompute_mbr(self) -> None:
        """Union the children's MBRs (children with no data contribute nothing)."""
        boxes = [child.mbr for child in self.children() if child.mbr is not None]
        if boxes:
            mbr = boxes[0]
            for box in boxes[1:]:
                mbr = mbr.union(box)
            self.mbr = mbr
        else:
            self.mbr = None
