"""Cut trees and node structure: routing, replacement, shared-slot semantics."""

from __future__ import annotations

import pytest

from repro.dataset.record import Record
from repro.index.node import (
    Cut,
    InternalNode,
    LeafNode,
    Slot,
    count_cut_children,
    find_slot,
    iter_cut_children,
    make_cut,
    route_cut,
)


def leaf_with(points: list[tuple[float, ...]], first_rid: int = 0) -> LeafNode:
    leaf = LeafNode()
    leaf.records = [Record(first_rid + i, p) for i, p in enumerate(points)]
    leaf.recompute_mbr()
    return leaf


@pytest.fixture
def three_leaves() -> tuple[LeafNode, LeafNode, LeafNode, InternalNode]:
    """An internal node over cuts:  (x<=5 ? A : (x<=8 ? B : C))."""
    a, b, c = leaf_with([(1.0,)]), leaf_with([(6.0,)], 10), leaf_with([(9.0,)], 20)
    cuts = Slot(Cut(0, 5.0, Slot(a), Slot(Cut(0, 8.0, Slot(b), Slot(c)))))
    node = InternalNode(level=1, cuts=cuts)
    node.recompute_mbr()
    return a, b, c, node


class TestCutTree:
    def test_children_left_to_right(self, three_leaves) -> None:
        a, b, c, node = three_leaves
        assert list(node.children()) == [a, b, c]
        assert count_cut_children(node.cuts) == 3
        assert node.fanout == 3

    def test_routing_is_deterministic(self, three_leaves) -> None:
        a, b, c, node = three_leaves
        assert node.route((5.0,)) is a  # boundary goes left
        assert node.route((5.1,)) is b
        assert node.route((8.0,)) is b
        assert node.route((8.5,)) is c

    def test_find_slot(self, three_leaves) -> None:
        a, _b, _c, node = three_leaves
        slot = find_slot(node.cuts, a)
        assert slot is not None and slot.inner is a
        assert find_slot(node.cuts, LeafNode()) is None

    def test_replace_child_updates_fanout(self, three_leaves) -> None:
        a, b, c, node = three_leaves
        a1, a2 = leaf_with([(0.0,)], 30), leaf_with([(3.0,)], 40)
        node.replace_child(a, make_cut(0, 2.0, a1, a2), added=1)
        assert node.fanout == 4
        assert list(node.children()) == [a1, a2, b, c]
        assert node.route((0.5,)) is a1

    def test_replace_missing_child_raises(self, three_leaves) -> None:
        _a, _b, _c, node = three_leaves
        with pytest.raises(KeyError):
            node.replace_child(LeafNode(), LeafNode(), added=0)

    def test_remove_child_promotes_sibling(self, three_leaves) -> None:
        a, b, c, node = three_leaves
        node.remove_child(b)
        assert node.fanout == 2
        assert list(node.children()) == [a, c]
        # the x<=8 cut was spliced out: everything right of 5 routes to c
        assert node.route((6.0,)) is c
        assert node.route((4.0,)) is a

    def test_remove_only_child_rejected(self) -> None:
        a = leaf_with([(1.0,)])
        node = InternalNode(level=1, cuts=Slot(a))
        with pytest.raises(ValueError):
            node.remove_child(a)

    def test_stale_view_sees_replacement(self, three_leaves) -> None:
        """The load-bearing slot property: structural edits are mutations.

        A stale holder of the cut tree (here: the raw ``cuts`` slot captured
        before the edit) must observe child replacements, because the
        buffer-tree loader routes from node references captured before
        splits restructure the tree.
        """
        a, _b, _c, node = three_leaves
        stale_view = node.cuts  # captured "before"
        a1, a2 = leaf_with([(0.0,)], 30), leaf_with([(3.0,)], 40)
        node.replace_child(a, make_cut(0, 2.0, a1, a2), added=1)
        assert route_cut(stale_view, (0.5,)) is a1
        assert route_cut(stale_view, (3.0,)) is a2


class TestNodeMetadata:
    def test_leaf_mbr_recompute(self) -> None:
        leaf = leaf_with([(1.0,), (5.0,)])
        assert leaf.mbr is not None
        assert (leaf.mbr.lows, leaf.mbr.highs) == ((1.0,), (5.0,))
        leaf.records.pop()
        leaf.recompute_mbr()
        assert leaf.mbr.highs == (1.0,)
        leaf.records.clear()
        leaf.recompute_mbr()
        assert leaf.mbr is None

    def test_internal_mbr_unions_children(self, three_leaves) -> None:
        _a, _b, _c, node = three_leaves
        assert node.mbr is not None
        assert (node.mbr.lows, node.mbr.highs) == ((1.0,), (9.0,))

    def test_record_count_recurses(self, three_leaves) -> None:
        _a, _b, _c, node = three_leaves
        assert node.record_count() == 3

    def test_levels(self, three_leaves) -> None:
        a, _b, _c, node = three_leaves
        assert a.is_leaf and not node.is_leaf
        assert a.level == 0 and node.level == 1

    def test_node_ids_unique(self) -> None:
        assert LeafNode().node_id != LeafNode().node_id

    def test_iter_cut_children_on_bare_slot(self) -> None:
        leaf = leaf_with([(1.0,)])
        assert list(iter_cut_children(Slot(leaf))) == [leaf]
