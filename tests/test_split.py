"""Split policies: thresholds, objectives, bias, weighting, exhaustiveness."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataset.record import Record
from repro.index.split import (
    BiasedSplitPolicy,
    MidpointSplitPolicy,
    MinMarginSplitPolicy,
    WeightedSplitPolicy,
    best_threshold,
    candidate_thresholds,
    exhaustive_ncp_split,
    group_margin,
    partition_records,
    widest_dimensions,
)
from tests.oracles import exhaustive_ncp_split_small


def records_from(points: list[tuple[float, ...]]) -> list[Record]:
    return [Record(i, p) for i, p in enumerate(points)]


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

    def test_candidates_include_widest_gap(self) -> None:
        values = [1, 2, 3, 50, 51, 52]
        candidates = candidate_thresholds(values, 1)
        assert (3, 3) in candidates  # balanced == widest gap here
        values = [1, 2, 3, 4, 5, 100]
        candidates = candidate_thresholds(values, 1)
        assert candidates[0] == (3, 3)  # balanced first
        assert (5, 5) in candidates  # gap 5 -> 100

    @given(
        st.lists(st.integers(0, 6).map(float), max_size=40),
        st.integers(1, 6),
    )
    def test_balanced_then_widest_gap_on_tie_heavy_inputs(
        self, values: list[float], min_count: int
    ) -> None:
        """Against the definition: of the legal boundaries between distinct
        sorted values, the first closest to the median, then the first
        widest gap unless it is the same boundary."""
        ordered = sorted(values)
        legal = [
            (ordered[index], index + 1)
            for index in range(len(ordered) - 1)
            if ordered[index] != ordered[index + 1]
            and min_count <= index + 1 <= len(ordered) - min_count
        ]
        expected = []
        if legal:
            balanced = min(legal, key=lambda cut: abs(cut[1] - len(values) / 2))
            widest = max(
                legal, key=lambda cut: ordered[cut[1]] - ordered[cut[1] - 1]
            )
            expected = [balanced] if widest == balanced else [balanced, widest]
        assert candidate_thresholds(values, min_count) == expected


class TestPartitioning:
    def test_partition_records(self) -> None:
        records = records_from([(1, 0), (5, 0), (9, 0)])
        left, right = partition_records(records, 0, 5)
        assert [r.rid for r in left] == [0, 1]
        assert [r.rid for r in right] == [2]

    def test_group_margin_normalizes(self) -> None:
        records = records_from([(0, 0), (10, 40)])
        assert group_margin(records, (100, 100)) == pytest.approx(0.5)
        assert group_margin(records, (100, 0)) == pytest.approx(0.1)
        assert group_margin([], (100, 100)) == 0.0

    def test_group_margin_weighted(self) -> None:
        records = records_from([(0, 0), (10, 40)])
        assert group_margin(records, (100, 100), (2.0, 1.0)) == pytest.approx(0.6)

    def test_widest_dimensions(self) -> None:
        records = records_from([(0, 0, 0), (1, 50, 9)])
        assert widest_dimensions(records, (100, 100, 100), 2) == [1, 2]


class TestMinMargin:
    def test_respects_min_count(self) -> None:
        records = records_from([(float(i),) for i in range(10)])
        decision = MinMarginSplitPolicy().choose_split(records, 4, (10.0,))
        assert decision is not None
        assert decision.left_count >= 4 and decision.right_count >= 4

    def test_prefers_gap_dimension(self) -> None:
        # Dimension 1 splits the data into two tight clusters (0 vs 90,
        # alternating with dimension 0, so the cuts are not equivalent);
        # cutting dimension 0 would leave both sides spanning the full
        # dimension-1 extent.
        points = [(float(i), 0.0 if i % 2 == 0 else 90.0) for i in range(10)]
        decision = MinMarginSplitPolicy(max_dimensions=None).choose_split(
            records_from(points), 2, (100.0, 100.0)
        )
        assert decision is not None
        assert decision.dimension == 1

    def test_none_when_unsplittable(self) -> None:
        records = records_from([(5.0, 5.0)] * 8)
        assert MinMarginSplitPolicy().choose_split(records, 2, (10.0, 10.0)) is None

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
            a = full.choose_split(records, 4, (50.0,) * 3)
            b = limited.choose_split(records, 4, (50.0,) * 3)
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
        a = exhaustive_ncp_split(records, 3, extents, None, range(2))
        b = exhaustive_ncp_split_small(records, 3, extents, None, range(2))
        assert (a is None) == (b is None)
        if a is not None:
            # Both search the same space; scores tie -> cuts may differ,
            # so compare the achieved objective, not the cut itself.
            def score(decision) -> float:
                left, right = partition_records(
                    records, decision.dimension, decision.value
                )
                return len(left) * group_margin(left, extents) + len(
                    right
                ) * group_margin(right, extents)

            assert score(a) == pytest.approx(score(b))

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
        a = exhaustive_ncp_split(records, min_count, extents, None, range(2))
        b = exhaustive_ncp_split_small(records, min_count, extents, None, range(2))
        assert a == b

    def test_duplicates_on_one_dimension_force_the_other(self) -> None:
        records = records_from(
            [(7.0, float(value)) for value in (0, 0, 1, 1, 8, 8)]
        )
        extents = (8.0, 8.0)
        a = exhaustive_ncp_split(records, 2, extents, None, range(2))
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
            assert exhaustive_ncp_split(records, 3, (9.0, 9.0), None, range(2)) is None
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
        a = exhaustive_ncp_split(records, 2, extents, weights, range(2))
        b = exhaustive_ncp_split_small(records, 2, extents, weights, range(2))
        assert a == b

    def test_exhaustive_policy_wrapper(self) -> None:
        records = records_from([(float(i), 0.0) for i in range(12)])
        decision = MinMarginSplitPolicy(max_dimensions=None).choose_split(
            records, 3, (12.0, 12.0)
        )
        assert decision is not None
        assert decision.dimension == 0


class TestMidpoint:
    def test_cuts_widest_dimension(self) -> None:
        points = [(float(i), float(i * 10)) for i in range(10)]
        decision = MidpointSplitPolicy().choose_split(
            records_from(points), 2, (100.0, 100.0)
        )
        assert decision is not None
        assert decision.dimension == 1

    def test_falls_back_when_widest_unusable(self) -> None:
        # Dimension 1 is widest but all-duplicate save one value.
        points = [(float(i), 0.0) for i in range(9)] + [(9.0, 90.0)]
        decision = MidpointSplitPolicy().choose_split(
            records_from(points), 3, (100.0, 100.0)
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
            decision = policy.choose_split(records, 3, (50.0,) * 3)
            if decision is not None:
                assert decision.dimension == 1

    def test_fallback_when_preferred_unusable(self) -> None:
        points = [(float(i), 7.0) for i in range(10)]
        decision = BiasedSplitPolicy([1]).choose_split(
            records_from(points), 2, (10.0, 10.0)
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
        decision = WeightedSplitPolicy([1.0, 10.0]).choose_split(
            records_from(points), 2, (10.0, 10.0)
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
            assert weighted.choose_split(records, 3, (50.0, 50.0)) == plain.choose_split(
                records, 3, (50.0, 50.0)
            )

    def test_negative_weights_rejected(self) -> None:
        with pytest.raises(ValueError):
            WeightedSplitPolicy([-1.0])

    def test_wrong_weight_count_rejected(self) -> None:
        records = records_from([(1.0, 2.0)] * 6)
        with pytest.raises(ValueError):
            WeightedSplitPolicy([1.0]).choose_split(records, 2, (10.0, 10.0))
