"""Split policies: thresholds, objectives, bias, weighting, exhaustiveness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.record import Record
from repro.geometry.box import Box
from repro.index.rtree import RPlusTree
from repro.index.split import (
    BiasedSplitPolicy,
    MidpointSplitPolicy,
    MinMarginSplitPolicy,
    SplitDecision,
    SplitPolicy,
    WeightedSplitPolicy,
    best_threshold,
    exhaustive_ncp_split,
    point_matrix,
)
from tests.oracles import exhaustive_ncp_split_small, group_margin


def records_from(points: list[tuple[float, ...]]) -> list[Record]:
    return [Record(i, p) for i, p in enumerate(points)]


def choose(
    policy: SplitPolicy,
    records: list[Record],
    min_count: int,
    domain_extents: tuple[float, ...],
) -> SplitDecision | None:
    return policy.choose_split(
        records, point_matrix(records), min_count, domain_extents
    )


def split_score(records, decision, extents) -> float:
    """The objective a cut achieves, from the records' own sides."""
    left = [r for r in records if r.point[decision.dimension] <= decision.value]
    right = [r for r in records if r.point[decision.dimension] > decision.value]
    return len(left) * group_margin(left, extents) + len(right) * group_margin(
        right, extents
    )


class TestThresholds:
    def test_balanced_threshold_at_median(self) -> None:
        assert best_threshold([1, 2, 3, 4, 5, 6], 2) == (3, 3)

    def test_too_few_values(self) -> None:
        assert best_threshold([1, 2, 3], 2) is None

    def test_single_distinct_value(self) -> None:
        assert best_threshold([7, 7, 7, 7], 2) is None

    def test_duplicates_respect_min_count(self) -> None:
        # Only the boundary after the three 1s leaves 2+ on both sides.
        assert best_threshold([1, 1, 1, 9, 9], 2) == (1, 3)

    def test_no_legal_boundary_with_heavy_duplicates(self) -> None:
        assert best_threshold([1, 9, 9, 9], 2) is None

    def test_balanced_boundary_wins_over_widest_gap(self) -> None:
        # The widest gap (5 -> 100) is legal, but the balanced cut wins.
        assert best_threshold([1, 2, 3, 4, 5, 100], 1) == (3, 3)
        assert best_threshold([1, 2, 3, 50, 51, 52], 1) == (3, 3)

    @given(
        st.lists(st.integers(0, 6).map(float), max_size=40),
        st.integers(1, 6),
    )
    def test_balanced_cut_on_tie_heavy_inputs(
        self, values: list[float], min_count: int
    ) -> None:
        """Against the definition: of the legal boundaries between distinct
        sorted values, the first closest to the median."""
        ordered = sorted(values)
        legal = [
            (ordered[index], index + 1)
            for index in range(len(ordered) - 1)
            if ordered[index] != ordered[index + 1]
            and min_count <= index + 1 <= len(ordered) - min_count
        ]
        expected = None
        if legal:
            expected = min(legal, key=lambda cut: abs(cut[1] - len(values) / 2))
        assert best_threshold(values, min_count) == expected


class TestPartitioning:
    def test_cut_keeps_record_order(self) -> None:
        # Values fall as rids rise on both interleaved sides, so a cut
        # that reordered by value would reverse each child's rids.
        points = [(float(i % 2 * 100 - i), 0.0) for i in range(30)]
        tree = RPlusTree(dimensions=2, k=3, split_policy=MidpointSplitPolicy())
        tree.begin_bulk(trigger=30)
        tree.insert_all(records_from(points))
        tree.finish_bulk()
        leaves = list(tree.leaves())
        assert len(leaves) > 2
        for leaf in leaves:
            rids = [record.rid for record in leaf.records]
            assert rids == sorted(rids)

    def test_group_margin_normalizes(self) -> None:
        records = records_from([(0, 0), (10, 40)])
        assert group_margin(records, (100, 100)) == pytest.approx(0.5)
        assert group_margin(records, (100, 0)) == pytest.approx(0.1)
        assert group_margin([], (100, 100)) == 0.0

    def test_group_margin_weighted(self) -> None:
        records = records_from([(0, 0), (10, 40)])
        assert group_margin(records, (100, 100), (2.0, 1.0)) == pytest.approx(0.6)

    def test_widest_dimensions(self) -> None:
        # Every dimension makes the same cut, so a full search keeps the
        # first, dimension 0; preselection never tries it, the narrowest.
        points = [(0.0, 0.0, 0.0), (1.0, 50.0, 9.0)] * 4
        for count in (1, 2):
            decision = choose(
                MinMarginSplitPolicy(max_dimensions=count),
                records_from(points),
                2,
                (100.0, 100.0, 100.0),
            )
            assert decision is not None and decision.dimension == 1

    def test_preselection_ties_keep_dimension_order(self) -> None:
        # Equal widths on all three dimensions: the first ones are searched.
        points = [(0.0, 9.0, 0.0), (9.0, 0.0, 9.0)] * 4
        decision = choose(
            MinMarginSplitPolicy(max_dimensions=1),
            records_from(points),
            2,
            (9.0, 9.0, 9.0),
        )
        assert decision is not None and decision.dimension == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 0, 1, 1.0, 2, -1.5])] * 2),
            min_size=4,
            max_size=60,
        ),
        st.integers(1, 4),
        st.sampled_from([MinMarginSplitPolicy(), MidpointSplitPolicy()]),
    )
    def test_split_children_bound_like_from_points_by_repr(
        self, points: list[tuple[float, float]], k: int, policy: SplitPolicy
    ) -> None:
        """Restore recomputes leaf MBRs with ``Box.from_points``, which
        keeps the first of ``0.0``/``-0.0`` it sees; a child's box cut from
        the leaf's matrix must match it by ``repr``, not just by ``==``."""
        tree = RPlusTree(
            dimensions=2, k=k, split_policy=policy, domain_extents=(4.0, 4.0)
        )
        # One over-full root leaf, split recursively by finish_bulk.
        tree.begin_bulk(trigger=len(points))
        tree.insert_all(records_from(points))
        tree.finish_bulk()
        if tree.root is None or tree.root.is_leaf:
            return  # no legal cut: the root leaf was never split
        for leaf in tree.leaves():
            expected = Box.from_points(record.point for record in leaf.records)
            assert repr(leaf.mbr) == repr(expected)
        tree.check_invariants()


class TestMinMargin:
    def test_respects_min_count(self) -> None:
        records = records_from([(float(i),) for i in range(10)])
        decision = choose(MinMarginSplitPolicy(), records, 4, (10.0,))
        assert decision is not None
        assert decision.left_count >= 4 and decision.right_count >= 4

    def test_prefers_gap_dimension(self) -> None:
        # Dimension 1 splits the data into two tight clusters (0 vs 90,
        # alternating with dimension 0, so the cuts are not equivalent);
        # cutting dimension 0 would leave both sides spanning the full
        # dimension-1 extent.
        points = [(float(i), 0.0 if i % 2 == 0 else 90.0) for i in range(10)]
        decision = choose(
            MinMarginSplitPolicy(max_dimensions=None),
            records_from(points),
            2,
            (100.0, 100.0),
        )
        assert decision is not None
        assert decision.dimension == 1

    def test_none_when_unsplittable(self) -> None:
        records = records_from([(5.0, 5.0)] * 8)
        assert choose(MinMarginSplitPolicy(), records, 2, (10.0, 10.0)) is None

    def test_axis_preselection_matches_full_search_often(self) -> None:
        import random

        rng = random.Random(0)
        full = MinMarginSplitPolicy(max_dimensions=None)
        limited = MinMarginSplitPolicy(max_dimensions=2)
        agreements = 0
        for _ in range(20):
            records = records_from(
                [tuple(float(rng.randint(0, 50)) for _ in range(3)) for _ in range(16)]
            )
            a = choose(full, records, 4, (50.0,) * 3)
            b = choose(limited, records, 4, (50.0,) * 3)
            assert (a is None) == (b is None)
            if a is not None and a == b:
                agreements += 1
        assert agreements >= 12  # preselection rarely changes the winner

    def test_invalid_max_dimensions(self) -> None:
        with pytest.raises(ValueError):
            MinMarginSplitPolicy(max_dimensions=0)


class TestExhaustiveEquivalence:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=8,
            max_size=40,
        )
    )
    def test_numpy_and_python_paths_agree(self, points: list[tuple[int, int]]) -> None:
        records = records_from([(float(a), float(b)) for a, b in points])
        extents = (30.0, 30.0)
        a = exhaustive_ncp_split(point_matrix(records), 3, extents, None, range(2))
        b = exhaustive_ncp_split_small(records, 3, extents, None, range(2))
        assert (a is None) == (b is None)
        if a is not None:
            # Both search the same space; scores tie -> cuts may differ,
            # so compare the achieved objective, not the cut itself.
            assert split_score(records, a, extents) == pytest.approx(
                split_score(records, b, extents)
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=4,
            max_size=32,
        ),
        st.integers(1, 4),
    )
    def test_paths_agree_exactly_on_tie_heavy_dyadic_inputs(
        self, points: list[tuple[int, int]], min_count: int
    ) -> None:
        """With power-of-two domain extents and integer coordinates every
        margin is a dyadic rational well inside float53, so the two paths'
        scores — accumulated in different association orders — are exact
        and the *decisions* (not just the objectives) must coincide.  The
        tiny value alphabet makes duplicate runs, the case where skipping
        intra-run boundaries must agree between the mask arithmetic and
        the sweep's equality check."""
        records = records_from([(float(a), float(b)) for a, b in points])
        extents = (4.0, 4.0)
        matrix = point_matrix(records)
        a = exhaustive_ncp_split(matrix, min_count, extents, None, range(2))
        b = exhaustive_ncp_split_small(records, min_count, extents, None, range(2))
        assert a == b

    def test_duplicates_on_one_dimension_force_the_other(self) -> None:
        records = records_from(
            [(7.0, float(value)) for value in (0, 0, 1, 1, 8, 8)]
        )
        extents = (8.0, 8.0)
        a = exhaustive_ncp_split(point_matrix(records), 2, extents, None, range(2))
        b = exhaustive_ncp_split_small(records, 2, extents, None, range(2))
        assert a == b
        assert a is not None and a.dimension == 1

    def test_no_legal_boundary_returns_none_on_both_paths(self) -> None:
        # Four identical records, and a duplicate pattern too tight for
        # min_count=3 on either side — both paths must refuse both.
        for rows in (
            [(2.0, 2.0)] * 4,
            [(1.0, 0.0), (1.0, 0.0), (9.0, 0.0), (9.0, 0.0), (9.0, 0.0)],
        ):
            records = records_from(rows)
            matrix = point_matrix(records)
            assert exhaustive_ncp_split(matrix, 3, (9.0, 9.0), None, range(2)) is None
            assert (
                exhaustive_ncp_split_small(records, 3, (9.0, 9.0), None, range(2))
                is None
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 16)),
            min_size=6,
            max_size=24,
        )
    )
    def test_weighted_paths_agree_exactly_on_dyadic_inputs(
        self, points: list[tuple[int, int]]
    ) -> None:
        records = records_from([(float(a), float(b)) for a, b in points])
        extents = (16.0, 16.0)
        weights = (2.0, 0.5)  # powers of two keep the arithmetic exact
        a = exhaustive_ncp_split(point_matrix(records), 2, extents, weights, range(2))
        b = exhaustive_ncp_split_small(records, 2, extents, weights, range(2))
        assert a == b

    def test_exhaustive_policy_wrapper(self) -> None:
        records = records_from([(float(i), 0.0) for i in range(12)])
        decision = choose(
            MinMarginSplitPolicy(max_dimensions=None), records, 3, (12.0, 12.0)
        )
        assert decision is not None
        assert decision.dimension == 0


class TestMidpoint:
    def test_cuts_widest_dimension(self) -> None:
        points = [(float(i), float(i * 10)) for i in range(10)]
        decision = choose(
            MidpointSplitPolicy(), records_from(points), 2, (100.0, 100.0)
        )
        assert decision is not None
        assert decision.dimension == 1

    def test_falls_back_when_widest_unusable(self) -> None:
        # Dimension 1 is widest but all-duplicate save one value.
        points = [(float(i), 0.0) for i in range(9)] + [(9.0, 90.0)]
        decision = choose(
            MidpointSplitPolicy(), records_from(points), 3, (100.0, 100.0)
        )
        assert decision is not None
        assert decision.dimension == 0


class TestBiased:
    def test_always_cuts_preferred_dimension(self) -> None:
        import random

        rng = random.Random(1)
        policy = BiasedSplitPolicy([1])
        for _ in range(10):
            records = records_from(
                [tuple(float(rng.randint(0, 50)) for _ in range(3)) for _ in range(12)]
            )
            decision = choose(policy, records, 3, (50.0,) * 3)
            if decision is not None:
                assert decision.dimension == 1

    def test_fallback_when_preferred_unusable(self) -> None:
        points = [(float(i), 7.0) for i in range(10)]
        decision = choose(
            BiasedSplitPolicy([1]), records_from(points), 2, (10.0, 10.0)
        )
        assert decision is not None
        assert decision.dimension == 0

    def test_empty_preferences_rejected(self) -> None:
        with pytest.raises(ValueError):
            BiasedSplitPolicy([])


class TestWeighted:
    def test_high_weight_attracts_cut(self) -> None:
        # The two dimensions are uncorrelated permutations of 0..9, so
        # cutting one leaves the other's extent wide; the x10 weight makes
        # shrinking dimension 1 the profitable choice.
        points = [(float(i), float(i * 7 % 10)) for i in range(10)]
        decision = choose(
            WeightedSplitPolicy([1.0, 10.0]), records_from(points), 2, (10.0, 10.0)
        )
        assert decision is not None
        assert decision.dimension == 1

    def test_weight_one_matches_min_margin(self) -> None:
        import random

        rng = random.Random(2)
        weighted = WeightedSplitPolicy([1.0, 1.0])
        plain = MinMarginSplitPolicy(max_dimensions=None)
        for _ in range(10):
            records = records_from(
                [tuple(float(rng.randint(0, 50)) for _ in range(2)) for _ in range(14)]
            )
            assert choose(weighted, records, 3, (50.0, 50.0)) == choose(
                plain, records, 3, (50.0, 50.0)
            )

    def test_negative_weights_rejected(self) -> None:
        with pytest.raises(ValueError):
            WeightedSplitPolicy([-1.0])

    def test_wrong_weight_count_rejected(self) -> None:
        records = records_from([(1.0, 2.0)] * 6)
        with pytest.raises(ValueError):
            choose(WeightedSplitPolicy([1.0]), records, 2, (10.0, 10.0))
