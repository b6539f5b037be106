"""The R+-tree: inserts, deletes, searches, and the structural invariants.

The invariant checker (:meth:`RPlusTree.check_invariants`) verifies record
counts, uniform leaf depth, fanout bounds, the k-occupancy floor, MBR
exactness and cut separation (disjoint sibling regions), so most tests
reduce to "do operations, then check".
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.record import Record
from repro.geometry.box import Box
from repro.index.rtree import RPlusTree
from tests.conftest import random_records


def fresh_tree(k: int = 3, **kwargs: object) -> RPlusTree:
    return RPlusTree(dimensions=3, k=k, domain_extents=(100.0,) * 3, **kwargs)  # type: ignore[arg-type]


class TestConstruction:
    def test_parameter_validation(self) -> None:
        with pytest.raises(ValueError):
            RPlusTree(dimensions=0, k=3)
        with pytest.raises(ValueError):
            RPlusTree(dimensions=2, k=0)
        with pytest.raises(ValueError):
            RPlusTree(dimensions=2, k=3, max_fanout=1)
        with pytest.raises(ValueError):
            RPlusTree(dimensions=2, k=5, leaf_capacity=8)
        with pytest.raises(ValueError):
            RPlusTree(dimensions=2, k=3, domain_extents=(1.0,))

    def test_empty_tree(self) -> None:
        tree = fresh_tree()
        assert len(tree) == 0
        assert tree.height == -1
        assert tree.leaves() == []
        tree.check_invariants()

    def test_wrong_dimensionality_rejected(self) -> None:
        tree = fresh_tree()
        with pytest.raises(ValueError):
            tree.insert(Record(0, (1.0, 2.0)))


class TestInsertion:
    def test_small_insert_stays_root_leaf(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(5, seed=0):
            tree.insert(record)
        assert tree.height == 0
        assert len(tree) == 5
        tree.check_invariants()

    def test_growth_keeps_invariants(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(1_000, seed=1):
            tree.insert(record)
        tree.check_invariants()
        assert len(tree) == 1_000
        assert tree.height >= 2

    def test_occupancy_floor(self) -> None:
        tree = fresh_tree(k=4)
        for record in random_records(500, seed=2):
            tree.insert(record)
        assert all(len(leaf.records) >= 4 for leaf in tree.leaves())

    def test_duplicate_points_allowed(self) -> None:
        tree = fresh_tree(k=2)
        for rid in range(50):
            tree.insert(Record(rid, (5.0, 5.0, 5.0)))
        # One over-full unsplittable leaf: legal (privacy-safe).
        tree.check_invariants()
        assert len(tree.leaves()) == 1

    def test_heavy_duplicates_split_where_possible(self) -> None:
        tree = fresh_tree(k=2)
        rid = 0
        for value in (1.0, 9.0):
            for _ in range(30):
                tree.insert(Record(rid, (value, 5.0, 5.0)))
                rid += 1
        tree.check_invariants()
        assert len(tree.leaves()) == 2

    def test_bulk_mode_defers_then_restores(self) -> None:
        tree = fresh_tree(k=3)
        tree.begin_bulk(trigger=500)
        assert tree.in_bulk_mode
        for record in random_records(400, seed=3):
            tree.insert(record)
        # Deferred: everything may still sit in one fat leaf.
        assert any(len(leaf.records) > tree.leaf_capacity for leaf in tree.leaves())
        tree.finish_bulk()
        assert not tree.in_bulk_mode
        tree.check_invariants()

    def test_bulk_insert_descending_from_root(self) -> None:
        tree = fresh_tree(k=3)
        records = random_records(300, seed=4)
        for record in records[:50]:
            tree.insert(record)
        assert tree.root is not None
        tree.bulk_insert_descending(tree.root, records[50:])
        assert len(tree) == 300
        tree.check_invariants()


class TestSearch:
    def test_search_matches_linear_scan(self) -> None:
        records = random_records(800, seed=5)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        rng = random.Random(6)
        for _ in range(25):
            lows = tuple(float(rng.randint(0, 80)) for _ in range(3))
            highs = tuple(low + rng.randint(0, 40) for low in lows)
            box = Box(lows, highs)
            expected = sorted(
                r.rid for r in records if box.contains_point(r.point)
            )
            found = sorted(r.rid for r in tree.search(box))
            assert found == expected

    def test_search_empty_tree(self) -> None:
        assert fresh_tree().search(Box((0.0,) * 3, (9.0,) * 3)) == []

    def test_locate_leaf_contains_point_region(self) -> None:
        records = random_records(400, seed=7)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        for record in records[::37]:
            leaf = tree.locate_leaf(record.point)
            assert leaf is not None
            assert any(r.rid == record.rid for r in leaf.records)

    def test_matching_leaves_prune_by_mbr(self) -> None:
        """MBRs exclude leaves whose *regions* intersect but data does not —
        the §2.3 precision argument."""
        tree = fresh_tree(k=2)
        rid = 0
        for x in (0.0, 1.0, 98.0, 99.0):
            for y in (0.0, 1.0):
                tree.insert(Record(rid, (x, y, 50.0)))
                rid += 1
        # Query the empty middle band: region-wise it overlaps someone's
        # region (regions tile the domain), but no MBR reaches it.
        matches = tree.matching_leaves(Box((40.0, 0.0, 0.0), (60.0, 99.0, 99.0)))
        assert matches == []


class TestDeletion:
    def test_delete_missing_raises(self) -> None:
        tree = fresh_tree()
        with pytest.raises(KeyError):
            tree.delete(0, (1.0, 1.0, 1.0))
        tree.insert(Record(1, (1.0, 1.0, 1.0)))
        with pytest.raises(KeyError):
            tree.delete(99, (1.0, 1.0, 1.0))

    def test_delete_returns_record(self) -> None:
        tree = fresh_tree()
        record = Record(7, (1.0, 2.0, 3.0), ("flu",))
        tree.insert(record)
        assert tree.delete(7, record.point) == record
        assert len(tree) == 0

    def test_delete_preserves_invariants(self) -> None:
        records = random_records(600, seed=8)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        rng = random.Random(9)
        doomed = rng.sample(records, 300)
        for record in doomed:
            tree.delete(record.rid, record.point)
        tree.check_invariants()
        assert len(tree) == 300
        surviving = {r.rid for r in records} - {r.rid for r in doomed}
        assert {r.rid for leaf in tree.leaves() for r in leaf.records} == surviving

    def test_mbr_shrink_stops_at_the_first_unchanged_node(self) -> None:
        """Deletes and updates recompute MBRs up the root path only until
        one comes out unchanged; every MBR stays exact all the same."""
        from repro import obs

        records = random_records(800, seed=11)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        live = {record.rid: record for record in records}
        rng = random.Random(12)
        obs.enable()
        try:
            for step in range(200):
                rid = rng.choice(sorted(live))
                old = live.pop(rid)
                if step % 2:
                    tree.delete(rid, old.point)
                else:
                    point = tuple(float(rng.randint(0, 100)) for _ in range(3))
                    live[rid] = Record(rid, point, old.sensitive)
                    tree.update(rid, old.point, live[rid])
                tree.check_invariants()
            recomputed = obs.OBS.counter_value("rtree.mbr_recomputations")
        finally:
            obs.disable()
            obs.reset()
        assert len(tree) == len(live)
        # A full walk recomputes height + 1 nodes per shrink (804 here, with
        # the splits' own); stopping early halves that at least.
        assert 0 < recomputed < 200 * (tree.height + 1) / 2

    def test_drain_to_empty(self) -> None:
        records = random_records(100, seed=10)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        for record in records:
            tree.delete(record.rid, record.point)
        assert len(tree) == 0
        tree.check_invariants()

    def test_failed_orphan_reinsert_loses_no_records(self) -> None:
        # Regression: the underflow path dissolves the leaf and decrements
        # the count *before* reinserting the orphans; an insert that raised
        # partway used to vanish the remaining orphans silently.
        records = random_records(120, seed=21)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        leaf = next(
            candidate
            for candidate in tree.leaves()
            if candidate is not tree.root and len(candidate.records) == 3
        )
        victim = leaf.records[0]

        def failing_insert(record: Record) -> None:
            raise OSError("injected insert failure")

        tree.insert = failing_insert  # type: ignore[method-assign]
        try:
            with pytest.raises(OSError, match="injected"):
                tree.delete(victim.rid, victim.point)
        finally:
            del tree.insert
        # The delete raised, so the tree must hold *everything* it held
        # before the call — the orphans and the victim alike.
        assert len(tree) == len(records)
        surviving = {r.rid for leaf in tree.leaves() for r in leaf.records}
        assert surviving == {r.rid for r in records}

    def test_failed_orphan_reinsert_partway_restores_remainder(self) -> None:
        # The second reinsert fails: the first orphan stays where the real
        # insert put it, the rest (and the victim) come back via the
        # fail-safe restore path.
        records = random_records(120, seed=22)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        leaf = min(
            (c for c in tree.leaves() if c is not tree.root),
            key=lambda c: len(c.records),
        )
        while len(leaf.records) > 3:  # shave down to the k-floor first
            doomed = leaf.records[-1]
            tree.delete(doomed.rid, doomed.point)
            records = [r for r in records if r.rid != doomed.rid]
        victim = leaf.records[0]
        real_insert = tree.insert
        calls = {"count": 0}

        def flaky_insert(record: Record) -> None:
            calls["count"] += 1
            if calls["count"] >= 2:
                raise OSError("injected insert failure")
            real_insert(record)

        tree.insert = flaky_insert  # type: ignore[method-assign]
        try:
            with pytest.raises(OSError, match="injected"):
                tree.delete(victim.rid, victim.point)
        finally:
            del tree.insert
        assert len(tree) == len(records)
        surviving = {r.rid for leaf in tree.leaves() for r in leaf.records}
        assert surviving == {r.rid for r in records}

    def test_height_shrinks_as_tree_drains(self) -> None:
        records = random_records(1_000, seed=11)
        tree = fresh_tree(k=3)
        for record in records:
            tree.insert(record)
        tall = tree.height
        assert tall >= 2
        for record in records[:996]:
            tree.delete(record.rid, record.point)
        tree.check_invariants()
        # Four records cannot fill two k=3 leaves, so the tree has one leaf
        # and the root-collapse path must have shrunk it to a root leaf.
        assert tree.height == 0


class TestTraversal:
    def test_leaf_order_is_stable_and_complete(self) -> None:
        tree = fresh_tree(k=3)
        records = random_records(500, seed=12)
        for record in records:
            tree.insert(record)
        leaves = tree.leaves()
        assert leaves == tree.leaves()  # deterministic
        rids = [r.rid for leaf in leaves for r in leaf.records]
        assert sorted(rids) == sorted(r.rid for r in records)

    def test_nodes_at_level(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(500, seed=13):
            tree.insert(record)
        assert tree.nodes_at_level(0) == tree.leaves()
        assert tree.nodes_at_level(tree.height) == [tree.root]
        assert tree.nodes_at_level(tree.height + 1) == []
        for level in range(tree.height + 1):
            nodes = tree.nodes_at_level(level)
            assert sum(node.record_count() for node in nodes) == len(tree)

    def test_leaf_groups(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(100, seed=14):
            tree.insert(record)
        groups = tree.leaf_groups()
        assert sum(len(g) for g in groups) == 100


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
        min_size=1,
        max_size=250,
    ),
    st.data(),
)
def test_random_operation_sequences_maintain_invariants(points, data) -> None:
    """Property: any interleaving of inserts and deletes keeps every invariant."""
    tree = fresh_tree(k=2)
    alive: dict[int, Record] = {}
    for rid, point in enumerate(points):
        record = Record(rid, tuple(float(v) for v in point))
        tree.insert(record)
        alive[rid] = record
        # Occasionally delete a random survivor.
        if alive and data.draw(st.integers(0, 3)) == 0:
            victim_rid = data.draw(st.sampled_from(sorted(alive)))
            victim = alive.pop(victim_rid)
            tree.delete(victim.rid, victim.point)
    tree.check_invariants()
    assert len(tree) == len(alive)
    remaining = {r.rid for leaf in tree.leaves() for r in leaf.records}
    assert remaining == set(alive)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
        min_size=8,
        max_size=200,
    ),
    st.randoms(use_true_random=False),
)
def test_underflow_dissolve_preserves_count_and_invariants(points, rng) -> None:
    """Property: every delete — including underflow dissolves that reinsert
    orphans — leaves ``len(tree)`` exact and every invariant intact."""
    tree = fresh_tree(k=3)
    alive: dict[int, Record] = {}
    for rid, point in enumerate(points):
        record = Record(rid, tuple(float(v) for v in point))
        tree.insert(record)
        alive[rid] = record
    doomed = rng.sample(sorted(alive), len(alive) // 2)
    for rid in doomed:
        victim = alive.pop(rid)
        tree.delete(victim.rid, victim.point)
        assert len(tree) == len(alive)
    tree.check_invariants()
    assert {r.rid for leaf in tree.leaves() for r in leaf.records} == set(alive)


class TestUpdateAndStats:
    def test_update_moves_record(self) -> None:
        tree = fresh_tree(k=3)
        records = random_records(300, seed=20)
        for record in records:
            tree.insert(record)
        victim = records[42]
        replacement = Record(victim.rid, (99.0, 99.0, 99.0), victim.sensitive)
        removed = tree.update(victim.rid, victim.point, replacement)
        assert removed.rid == victim.rid
        assert len(tree) == 300
        tree.check_invariants()
        leaf = tree.locate_leaf((99.0, 99.0, 99.0))
        assert leaf is not None
        assert any(r.rid == victim.rid for r in leaf.records)

    def test_update_missing_raises(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(50, seed=21):
            tree.insert(record)
        with pytest.raises(KeyError):
            tree.update(9_999, (1.0, 1.0, 1.0), Record(9_999, (2.0, 2.0, 2.0)))

    def test_update_with_wrong_dimensionality_keeps_old_record(self) -> None:
        """Regression: a bad replacement must not delete the original.

        ``update`` used to delete first and validate second, so a
        dimension-mismatched replacement silently dropped the old record.
        """
        tree = fresh_tree(k=3)
        records = random_records(300, seed=23)
        for record in records:
            tree.insert(record)
        victim = records[10]
        with pytest.raises(ValueError):
            tree.update(victim.rid, victim.point, Record(victim.rid, (1.0, 2.0)))
        assert len(tree) == 300
        leaf = tree.locate_leaf(victim.point)
        assert leaf is not None
        assert any(r.rid == victim.rid for r in leaf.records)
        tree.check_invariants()

    def test_update_reinserts_removed_record_when_insert_fails(
        self, monkeypatch
    ) -> None:
        """Regression: a failing insert rolls the delete back."""
        tree = fresh_tree(k=3)
        records = random_records(300, seed=24)
        for record in records:
            tree.insert(record)
        victim = records[77]
        replacement = Record(victim.rid, (50.0, 50.0, 50.0), victim.sensitive)

        real_insert = RPlusTree.insert
        failed = {"done": False}

        def failing_insert(self, record):  # noqa: ANN001
            # Fail only the replacement's first insert; orphan reinserts on
            # the delete path and the rollback itself must still work.
            if record is replacement and not failed["done"]:
                failed["done"] = True
                raise RuntimeError("simulated mid-update failure")
            return real_insert(self, record)

        monkeypatch.setattr(RPlusTree, "insert", failing_insert)
        with pytest.raises(RuntimeError):
            tree.update(victim.rid, victim.point, replacement)
        monkeypatch.undo()
        # The victim is back in the tree; nothing was lost.
        assert len(tree) == 300
        leaf = tree.locate_leaf(victim.point)
        assert leaf is not None
        assert any(r.rid == victim.rid for r in leaf.records)
        tree.check_invariants()

    def test_stats_consistency(self) -> None:
        tree = fresh_tree(k=3)
        for record in random_records(400, seed=22):
            tree.insert(record)
        stats = tree.stats()
        assert stats["records"] == 400
        assert stats["leaves"] == len(tree.leaves())
        assert stats["height"] == tree.height
        assert stats["leaf_occupancy_min"] >= 3
        assert sum(stats["nodes_per_level"].values()) >= stats["leaves"]
        assert 1.0 <= stats["mean_fanout"] <= tree.max_fanout

    def test_stats_empty_tree(self) -> None:
        stats = fresh_tree().stats()
        assert stats["records"] == 0
        assert stats["leaves"] == 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=150,
    )
)
def test_float_coordinates_maintain_invariants(points) -> None:
    """The tree is not integer-specific: arbitrary finite floats work."""
    tree = RPlusTree(dimensions=3, k=2, domain_extents=(2e6,) * 3)
    for rid, point in enumerate(points):
        tree.insert(Record(rid, point))
    tree.check_invariants()
    assert len(tree) == len(points)


class TestVersions:
    """Every node's version covers the changes under it, and the kept
    node record counts follow; :meth:`RPlusTree.check_invariants` holds
    the tree to both."""

    def test_a_missed_path_bump_fails_the_invariant_check(self, monkeypatch) -> None:
        import repro.index.rtree as rtree_module
        from repro.index.node import touch_path

        tree = fresh_tree(k=2, max_fanout=3)
        tree.insert_all(random_records(120, seed=4))
        tree.check_invariants()
        # Deleting the path bump: the changed leaf draws a version newer
        # than every ancestor's.
        monkeypatch.setattr(
            rtree_module, "touch_path", lambda nodes: touch_path(list(nodes)[:1])
        )
        tree.insert(Record(500, (50.0, 50.0, 50.0)))
        with pytest.raises(AssertionError, match="is newer than its parent"):
            tree.check_invariants()

    def test_a_stale_kept_count_fails_the_invariant_check(self) -> None:
        tree = fresh_tree(k=2, max_fanout=3)
        tree.insert_all(random_records(120, seed=4))
        root = tree.root
        assert root.record_count() == 120
        root._count += 1  # what a change left unbumped would keep
        with pytest.raises(AssertionError, match="keeps a record count"):
            tree.check_invariants()

    def test_finish_bulk_enters_only_changed_nodes(self) -> None:
        from repro.obs import OBS

        tree = fresh_tree(k=2, max_fanout=3)
        tree.insert_all(random_records(400, seed=6))
        OBS.enable(reset=True)
        try:
            tree.begin_bulk()
            tree.finish_bulk()
            everything = OBS.counter_value("rtree.finish_bulk_nodes")
            OBS.reset()
            tree.begin_bulk()
            tree.finish_bulk()
            assert OBS.counter_value("rtree.finish_bulk_nodes") == 1  # the root
            leaf = tree.leaves()[7]
            tree.insert(Record(900, leaf.records[0].point))
            OBS.reset()
            tree.begin_bulk()
            tree.finish_bulk()
            walked = OBS.counter_value("rtree.finish_bulk_nodes")
            assert tree.height + 1 <= walked < everything
        finally:
            OBS.disable()
            OBS.reset()
        tree.check_invariants()

    def test_an_unchanged_refused_leaf_is_not_retried(self) -> None:
        """A leaf of one repeated point has no legal cut: finish_bulk
        refuses it once, and not again until its records change."""
        from repro.obs import OBS

        tree = fresh_tree(k=2)
        OBS.enable(reset=True)
        try:
            tree.begin_bulk(trigger=100)
            tree.insert_all(Record(rid, (5.0, 5.0, 5.0)) for rid in range(20))
            tree.finish_bulk()
            assert OBS.counter_value("rtree.split_refusals") == 1
            tree.begin_bulk(trigger=100)
            tree.finish_bulk()
            assert OBS.counter_value("rtree.split_refusals") == 1
            tree.begin_bulk(trigger=100)
            tree.insert(Record(20, (5.0, 5.0, 5.0)))
            tree.finish_bulk()
            assert OBS.counter_value("rtree.split_refusals") == 2
        finally:
            OBS.disable()
            OBS.reset()
        tree.check_invariants()
