"""Sort-based groupings: Hilbert keys and order, STR partitioning."""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.buffer_tree import BufferTreeLoader
from repro.index.bulk import (
    chunk_with_floor,
    hilbert_ordered,
    hilbert_partitions,
    str_partitions,
)
from repro.index.hilbert import hilbert_key, quantize
from repro.index.rtree import RPlusTree
from tests.conftest import random_records


class TestHilbertKey:
    def test_one_dimension_is_identity(self) -> None:
        assert hilbert_key([5], bits=4) == 5

    def test_bijective_in_two_dimensions(self) -> None:
        bits = 4
        keys = {
            hilbert_key([x, y], bits) for x in range(16) for y in range(16)
        }
        assert keys == set(range(16 * 16))

    def test_bijective_in_three_dimensions(self) -> None:
        bits = 3
        keys = {
            hilbert_key([x, y, z], bits)
            for x in range(8)
            for y in range(8)
            for z in range(8)
        }
        assert keys == set(range(8**3))

    def test_adjacent_keys_are_adjacent_cells(self) -> None:
        """The Hilbert property: consecutive curve positions are neighbours
        (Manhattan distance exactly 1) — the locality Morton lacks."""
        bits = 4
        inverse = {}
        for x in range(16):
            for y in range(16):
                inverse[hilbert_key([x, y], bits)] = (x, y)
        for key in range(16 * 16 - 1):
            (x1, y1), (x2, y2) = inverse[key], inverse[key + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_out_of_range_rejected(self) -> None:
        with pytest.raises(ValueError):
            hilbert_key([16], bits=4)
        with pytest.raises(ValueError):
            hilbert_key([-1], bits=4)
        with pytest.raises(ValueError):
            hilbert_key([], bits=4)

    def test_quantize_clamps_and_scales(self) -> None:
        assert quantize((0.0, 50.0, 100.0), (0, 0, 0), (100, 100, 100), 4) == [
            0,
            7,
            15,
        ]
        # Degenerate domain maps to 0.
        assert quantize((5.0,), (5,), (5,), 4) == [0]

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=4))
    def test_hilbert_key_deterministic(self, coordinates: list[int]) -> None:
        assert hilbert_key(coordinates, 8) == hilbert_key(coordinates, 8)


#: (dimensions, bits) pairs small enough to enumerate the whole grid —
#: ``dimensions * bits`` bounded so a full sweep stays in milliseconds.
_GRID_SHAPES = [
    (dimensions, bits)
    for dimensions in (1, 2, 3, 4)
    for bits in (1, 2, 3, 4)
    if dimensions * bits <= 12
]


@lru_cache(maxsize=None)
def _grid_points(dimensions: int, bits: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(1 << bits), repeat=dimensions))


class TestHilbertProperties:
    """Property-based coverage of the key/quantization layer.

    The sharded parallel engine leans on these properties: injectivity is
    what makes ``(key, rid)`` a total order, and the round-trip bound is
    what keeps shard-boundary keys meaningful in domain space.
    """

    @given(
        st.sampled_from(_GRID_SHAPES),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_hilbert_key_injective_on_grid(self, shape, rng) -> None:
        dimensions, bits = shape
        points = _grid_points(dimensions, bits)
        sample = rng.sample(points, min(len(points), 256))
        keys = [hilbert_key(point, bits) for point in sample]
        assert len(set(keys)) == len(sample)
        assert all(0 <= key < (1 << (dimensions * bits)) for key in keys)

    @given(st.sampled_from([shape for shape in _GRID_SHAPES if shape[0] >= 2]))
    @settings(max_examples=len(_GRID_SHAPES), deadline=None)
    def test_hilbert_adjacency_exhaustive(self, shape) -> None:
        """Consecutive curve positions differ by exactly one grid step, in
        every dimensionality/resolution — the locality the loader exploits."""
        dimensions, bits = shape
        inverse = {
            hilbert_key(point, bits): point
            for point in _grid_points(dimensions, bits)
        }
        assert len(inverse) == 1 << (dimensions * bits)
        for key in range(len(inverse) - 1):
            here, there = inverse[key], inverse[key + 1]
            assert sum(abs(a - b) for a, b in zip(here, there)) == 1

    @given(
        st.integers(2, 12),
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(0.0, 1e6, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantize_round_trip_within_one_cell(self, bits, axes) -> None:
        """Each cell's center re-quantizes to that cell, and lies within one
        cell width of every point that quantizes there."""
        lows = [low for low, _extent, _frac in axes]
        highs = [low + extent for low, extent, _frac in axes]
        point = [
            low + (high - low) * frac
            for (low, _extent, frac), high in zip(axes, highs)
        ]
        cells = quantize(point, lows, highs, bits)
        top = (1 << bits) - 1
        restored = [
            min(low + (cell + 0.5) * (high - low) / top, high)
            if high > low
            else low
            for cell, low, high in zip(cells, lows, highs)
        ]
        assert quantize(restored, lows, highs, bits) == cells
        for value, back, low, high in zip(point, restored, lows, highs):
            assert low <= back <= high
            extent = high - low
            cell_width = extent / top if extent > 0 else 0.0
            assert abs(back - value) <= cell_width + 1e-9 * max(1.0, abs(value))


class TestSortLoaders:
    def test_hilbert_partitions_floor(self) -> None:
        records = random_records(203, seed=1)
        groups = hilbert_partitions(records, (0,) * 3, (100,) * 3, k=10)
        assert sum(len(g) for g in groups) == 203
        assert all(len(g) >= 10 for g in groups)

    def test_hilbert_ordered_is_permutation(self) -> None:
        records = random_records(100, seed=2)
        ordered = hilbert_ordered(records, (0,) * 3, (100,) * 3)
        assert sorted(r.rid for r in ordered) == list(range(100))

    def test_str_partitions_floor(self) -> None:
        records = random_records(500, seed=3)
        groups = str_partitions(records, dimensions=3, k=10)
        assert sum(len(g) for g in groups) == 500
        assert all(len(g) >= 10 for g in groups)
        assert all(len(g) <= 20 for g in groups)  # target 2k unless unsplittable

    def test_str_handles_duplicates(self) -> None:
        from repro.dataset.record import Record

        records = [Record(i, (5.0, 5.0, 5.0)) for i in range(100)]
        groups = str_partitions(records, dimensions=3, k=10)
        assert groups == [records]  # unsplittable -> one whole group

    def test_hilbert_bulk_load_builds_valid_tree(self) -> None:
        """The buffer-tree loader over the Hilbert-ordered stream — what a
        sharded file load feeds it — builds a valid tree."""
        records = random_records(600, seed=4)
        tree = RPlusTree(3, 5, domain_extents=(100.0,) * 3)
        BufferTreeLoader(tree).load(
            hilbert_ordered(records, (0.0,) * 3, (100.0,) * 3)
        )
        tree.check_invariants()
        assert len(tree) == 600


class TestChunkWithFloor:
    """The k-floor chunker of the Hilbert grouping and release strategy."""

    def test_exact_2k_chunks(self) -> None:
        records = random_records(40, seed=6)
        groups = chunk_with_floor(records, k=10)
        assert [len(g) for g in groups] == [20, 20]
        assert [r.rid for g in groups for r in g] == list(range(40))

    def test_short_tail_merges_into_last_group(self) -> None:
        records = random_records(47, seed=6)
        groups = chunk_with_floor(records, k=10)
        assert [len(g) for g in groups] == [20, 27]

    def test_tail_at_floor_stays_separate(self) -> None:
        records = random_records(30, seed=6)
        groups = chunk_with_floor(records, k=10)
        assert [len(g) for g in groups] == [20, 10]

    def test_exactly_k_records_is_one_group(self) -> None:
        records = random_records(10, seed=6)
        assert [len(g) for g in chunk_with_floor(records, k=10)] == [10]

    def test_fewer_than_k_records_raises(self) -> None:
        """No k-anonymous grouping exists below k records; emitting an
        undersized group would break the k-floor."""
        records = random_records(9, seed=6)
        with pytest.raises(ValueError, match="9 records < k=10"):
            chunk_with_floor(records, k=10)

    def test_empty_input_raises(self) -> None:
        with pytest.raises(ValueError, match="0 records < k=1"):
            chunk_with_floor([], k=1)

    def test_nonpositive_k_raises(self) -> None:
        with pytest.raises(ValueError, match="k must be at least 1"):
            chunk_with_floor(random_records(5, seed=6), k=0)

    def test_hilbert_partitions_propagates_the_floor_error(self) -> None:
        records = random_records(4, seed=6)
        with pytest.raises(ValueError, match="4 records < k=5"):
            hilbert_partitions(records, (0.0,) * 3, (100.0,) * 3, k=5)

    @given(st.integers(1, 25), st.integers(0, 120))
    @settings(max_examples=120, deadline=None)
    def test_floor_invariants(self, k: int, count: int) -> None:
        records = random_records(count, seed=7)
        if count < k:
            with pytest.raises(ValueError):
                chunk_with_floor(records, k)
            return
        groups = chunk_with_floor(records, k)
        assert [r.rid for g in groups for r in g] == list(range(count))
        assert all(len(g) >= k for g in groups)
        assert all(len(g) <= 3 * k - 1 for g in groups)
