"""Leaf scan (Figure 5) and the cut-aligned subtree scan.

``subtree_scan`` returns runs of whole leaves; its properties are checked
over each run's flattened records (see :func:`flatten`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leafscan import Pieces, leaf_scan, subtree_scan
from repro.dataset.record import Record
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.node import InternalNode, LeafNode, Slot, make_cut, touch_path
from repro.index.rtree import RPlusTree
from repro.privacy.ldiversity import DistinctLDiversity
from tests import oracles
from tests.conftest import random_records


def groups_of(sizes: list[int]) -> list[list[Record]]:
    rid = 0
    groups = []
    for size in sizes:
        group = [Record(rid + i, (float(rid + i),)) for i in range(size)]
        rid += size
        groups.append(group)
    return groups


def flatten(runs) -> list[list[Record]]:
    """Each run of leaves as its records, leaf by leaf."""
    return [[r for leaf in run for r in leaf.records] for run in runs]


class TestLeafScan:
    def test_whole_leaves_in_order(self) -> None:
        leaves = groups_of([5, 5, 5, 5])
        partitions = leaf_scan(leaves, k1=10)
        assert [len(p) for p in partitions] == [10, 10]
        # Sequential order, whole leaves: rids are consecutive runs.
        rids = [r.rid for p in partitions for r in p]
        assert rids == sorted(rids)

    def test_group_closes_at_k1_and_small_tail_folds(self) -> None:
        # First group closes at 12 (>= k1); the remaining 6 < k1, so LS4
        # folds it into the open group rather than closing: one group of 18.
        leaves = groups_of([6, 6, 6])
        partitions = leaf_scan(leaves, k1=10)
        assert [len(p) for p in partitions] == [18]
        # With a fourth leaf, the tail (12 >= k1) forms its own group.
        partitions = leaf_scan(groups_of([6, 6, 6, 6]), k1=10)
        assert [len(p) for p in partitions] == [12, 12]

    def test_tail_folds_into_last_group(self) -> None:
        # 5+5 closes a group; remaining 3 < k1 joins it (Figure 5 step LS4).
        leaves = groups_of([5, 5, 3])
        partitions = leaf_scan(leaves, k1=10)
        assert [len(p) for p in partitions] == [13]

    def test_k1_equal_total(self) -> None:
        leaves = groups_of([4, 4])
        partitions = leaf_scan(leaves, k1=8)
        assert [len(p) for p in partitions] == [8]

    def test_insufficient_records_rejected(self) -> None:
        with pytest.raises(ValueError):
            leaf_scan(groups_of([3, 3]), k1=10)

    def test_invalid_k1_rejected(self) -> None:
        with pytest.raises(ValueError):
            leaf_scan(groups_of([5]), k1=0)

    def test_constraint_extends_groups(self) -> None:
        # Make every leaf single-diagnosis; 2-diversity forces merging
        # across leaves until two distinct values meet.
        leaves = groups_of([5, 5, 5, 5])
        for index, leaf in enumerate(leaves):
            diagnosis = "flu" if index % 2 == 0 else "cold"
            leaves[index] = [
                Record(r.rid, r.point, (diagnosis,)) for r in leaf
            ]
        partitions = leaf_scan(leaves, k1=5, constraint=DistinctLDiversity(2))
        assert all(len(p) >= 5 for p in partitions)
        for partition in partitions:
            assert len({r.sensitive[0] for r in partition}) >= 2

    def test_unsatisfiable_constraint_rejected(self) -> None:
        leaves = groups_of([5, 5])
        with pytest.raises(ValueError):
            leaf_scan(leaves, k1=5, constraint=lambda records: False)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(2, 9), min_size=1, max_size=25),
        st.integers(2, 30),
    )
    def test_partition_floor_property(self, sizes: list[int], k1: int) -> None:
        leaves = groups_of(sizes)
        total = sum(sizes)
        if total < k1:
            with pytest.raises(ValueError):
                leaf_scan(leaves, k1)
            return
        partitions = leaf_scan(leaves, k1)
        assert all(len(p) >= k1 for p in partitions)
        assert sum(len(p) for p in partitions) == total
        # Whole leaves in order: concatenated rids are 0..total-1.
        rids = [r.rid for p in partitions for r in p]
        assert rids == list(range(total))


class TestSubtreeScan:
    def make_tree(self, count: int, k: int = 3, seed: int = 1) -> RPlusTree:
        tree = RPlusTree(dimensions=3, k=k, domain_extents=(100.0,) * 3)
        BufferTreeLoader(tree).load(random_records(count, seed=seed))
        return tree

    def test_floor_and_coverage(self) -> None:
        tree = self.make_tree(800)
        for k1 in (3, 7, 20, 50):
            groups = flatten(subtree_scan(tree, k1))
            assert all(len(g) >= k1 for g in groups)
            assert sum(len(g) for g in groups) == 800

    def test_groups_are_consecutive_whole_leaves(self) -> None:
        """The Lemma 1 prerequisite: groups = whole leaves, in leaf order."""
        tree = self.make_tree(600)
        leaf_rids = [
            [r.rid for r in leaf.records] for leaf in tree.leaves()
        ]
        groups = flatten(subtree_scan(tree, 12))
        flattened = [rid for group in groups for rid in (r.rid for r in group)]
        expected = [rid for leaf in leaf_rids for rid in leaf]
        assert flattened == expected
        # Group boundaries never cut a leaf in half.
        boundaries = set()
        position = 0
        for group in groups:
            position += len(group)
            boundaries.add(position)
        leaf_ends = set()
        position = 0
        for leaf in leaf_rids:
            position += len(leaf)
            leaf_ends.add(position)
        assert boundaries <= leaf_ends
        # The runs themselves are consecutive slices of tree.leaves().
        runs = subtree_scan(tree, 12)
        assert [leaf for run in runs for leaf in run] == tree.leaves()
        assert all(run for run in runs)

    def test_group_sizes_bounded(self) -> None:
        tree = self.make_tree(900)
        k1 = 15
        groups = flatten(subtree_scan(tree, k1))
        # Bound: a group is at most 2*k1 - 1 records plus one whole leaf
        # (the carry can force one extra leaf in).
        biggest_leaf = max(len(leaf.records) for leaf in tree.leaves())
        assert max(len(g) for g in groups) <= 2 * k1 - 1 + biggest_leaf

    def test_less_box_overlap_than_sequential_scan(self) -> None:
        """The quality property motivating the subtree strategy: aligning
        group boundaries with the cut hierarchy leaves strictly fewer
        volume-overlapping partition-box pairs than the sequential scan."""
        from repro.geometry.box import Box

        def volume_overlaps(groups) -> int:
            boxes = [Box.from_points(r.point for r in g) for g in groups]
            count = 0
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    overlap = a.intersection(b)
                    if overlap is not None and overlap.area() > 0:
                        count += 1
            return count

        tree = self.make_tree(1_000, seed=5)
        for k1 in (12, 25):
            sequential = leaf_scan([l.records for l in tree.leaves()], k1)
            aligned = flatten(subtree_scan(tree, k1))
            assert volume_overlaps(aligned) < volume_overlaps(sequential)

    def test_too_few_records_rejected(self) -> None:
        tree = RPlusTree(dimensions=3, k=3)
        with pytest.raises(ValueError):
            subtree_scan(tree, 5)

    def test_constraint_respected(self) -> None:
        tree = self.make_tree(400)
        constraint = DistinctLDiversity(2)
        groups = flatten(subtree_scan(tree, 5, constraint))
        assert all(constraint(g) for g in groups)


class TestPieces:
    """A subtree scan that splices the pieces a previous scan kept."""

    @staticmethod
    def _leaf(records: list[Record]) -> LeafNode:
        leaf = LeafNode()
        leaf.records = records
        return leaf

    def test_a_spliced_piece_unfolds_the_last_run(self) -> None:
        """Node ``p`` closes two runs; node ``t`` is the too-small tail,
        folded into ``p``'s last run.  Once ``t`` grows past k1 it closes
        runs of its own, and ``p``, clean and spliced, must publish its
        last run unfolded."""
        records = iter(Record(rid, (float(rid),)) for rid in range(100))
        p_leaves = [self._leaf([next(records) for _ in range(3)]) for _ in range(4)]
        t_leaves = [self._leaf([next(records)]) for _ in range(2)]
        halves = make_cut(0, 2.0, *p_leaves[:2]), make_cut(0, 8.0, *p_leaves[2:])
        p = InternalNode(1, Slot(make_cut(0, 5.0, *halves)))
        t = InternalNode(1, Slot(make_cut(0, 12.0, *t_leaves)))
        root = InternalNode(2, Slot(make_cut(0, 11.0, p, t)))
        tree = RPlusTree(dimensions=1, k=1)
        tree._root, tree._count = root, 14
        pieces = Pieces()
        first = subtree_scan(tree, 4, None, pieces)
        assert flatten(first) == oracles.subtree_scan(tree, 4)
        assert pieces.folded and len(first) == 2
        t_leaves[0].records.extend(next(records) for _ in range(6))
        touch_path((t_leaves[0], root, t))
        tree._count += 6
        second = subtree_scan(tree, 4, None, pieces)
        assert flatten(second) == oracles.subtree_scan(tree, 4)
        assert len(second) == 3
        # ``p`` was spliced, so only its unfolded last run and ``t``'s runs
        # are fresh.
        assert pieces.fresh == [1, 2]

    def test_a_constraint_splices_no_node_entered_with_a_carry(self) -> None:
        """Node ``a``'s records carry into node ``b``; a constraint reads
        them there.  When they change without changing their count, ``b``
        (clean, same carry) must be walked again, not spliced."""
        rids = iter(range(100))

        def leaf(*diagnoses: str) -> LeafNode:
            return self._leaf(
                [Record(next(rids), (0.0,), (diagnosis,)) for diagnosis in diagnoses]
            )

        a_leaves = [leaf("flu"), leaf("flu", "flu")]
        b_leaves = [leaf("cancer"), leaf("flu", "cold"), leaf("flu", "cold", "cancer")]
        a = InternalNode(1, Slot(make_cut(0, 0.0, *a_leaves)))
        b = InternalNode(
            1, Slot(make_cut(0, 0.0, make_cut(0, 0.0, *b_leaves[:2]), b_leaves[2]))
        )
        root = InternalNode(2, Slot(make_cut(0, 0.0, a, b)))
        tree = RPlusTree(dimensions=1, k=1)
        tree._root, tree._count = root, 9
        diverse = DistinctLDiversity(2)
        pieces = Pieces()
        first = subtree_scan(tree, 2, diverse, pieces)
        assert flatten(first) == oracles.subtree_scan(tree, 2, diverse)
        for node in a_leaves:
            node.records = [
                Record(r.rid, r.point, ("cancer",)) for r in node.records
            ]
            touch_path((node, root, a))
        second = subtree_scan(tree, 2, diverse, pieces)
        assert flatten(second) == oracles.subtree_scan(tree, 2, diverse)
        assert flatten(second) != flatten(first)
