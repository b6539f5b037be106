"""Element-wise property tests for the columnar kernels.

Every kernel in :mod:`repro.kernels` — the record codec and batch Hilbert
keying — claims *bit-identity* with per-record scalar code: ``struct``
pack/unpack and ``hilbert_key(quantize(...))``.  Hypothesis drives each
kernel and that scalar code over the same inputs and the assertions demand
exact equality — floats compare with ``==``, byte strings byte-for-byte,
and keys as Python integers, never through a tolerance.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.record import Record
from repro.index.hilbert import hilbert_key, quantize
from repro.index.split import MidpointSplitPolicy, point_matrix
from repro.kernels.codec import decode_points, encode_points
from repro.kernels.hilbert import (
    hilbert_keys,
    hilbert_keys_for_points,
    quantize_batch,
)

# -- strategies ---------------------------------------------------------------

#: Clean finite floats: no NaN/inf and no -0.0, so float equality is exact.
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=32
).map(lambda value: value + 0.0)

#: Integer-coded coordinates — what record files actually hold.
coded = st.integers(-1000, 1000).map(float)


def point_arrays(coords=coded, min_rows=1, max_rows=40, max_dims=5):
    """(N, dims) float64 arrays with every row the same width."""
    return st.integers(1, max_dims).flatmap(
        lambda dims: st.lists(
            st.lists(coords, min_size=dims, max_size=dims),
            min_size=min_rows,
            max_size=max_rows,
        ).map(lambda rows: np.array(rows, dtype=np.float64))
    )


def cell_arrays(bits: int, max_dims: int = 9):
    top = (1 << bits) - 1
    return st.integers(1, max_dims).flatmap(
        lambda dims: st.lists(
            st.lists(st.integers(0, top), min_size=dims, max_size=dims),
            min_size=1,
            max_size=30,
        ).map(lambda rows: np.array(rows, dtype=np.uint64))
    )


# -- Hilbert keying -----------------------------------------------------------


class TestHilbertKeys:
    @given(st.integers(1, 10).flatmap(lambda b: st.tuples(st.just(b), cell_arrays(b))))
    def test_batch_keys_equal_scalar_keys(self, case) -> None:
        bits, cells = case
        keys = hilbert_keys(cells, bits).tolist()
        expected = [hilbert_key(row, bits) for row in cells.tolist()]
        assert keys == expected

    def test_wide_keys_exceed_64_bits_exactly(self) -> None:
        # census/agrawal shape: 9 dims x 10 bits = 90-bit keys.  The object
        # path must deliver the full integer, not the key modulo 2**64.
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 1 << 10, size=(64, 9), dtype=np.uint64)
        keys = hilbert_keys(cells, 10)
        assert keys.dtype == object
        expected = [hilbert_key(row, 10) for row in cells.tolist()]
        assert keys.tolist() == expected
        assert any(key >> 64 for key in expected)  # the grid really is wide

    def test_narrow_keys_stay_uint64(self) -> None:
        cells = np.array([[1, 2], [3, 0]], dtype=np.uint64)
        assert hilbert_keys(cells, 4).dtype == np.uint64

    @pytest.mark.parametrize(("dims", "bits"), [(2, 3), (3, 2)])
    def test_full_grid_is_a_bijection_with_adjacent_steps(
        self, dims: int, bits: int
    ) -> None:
        """Over the whole grid the keys are a permutation of the key space
        and walking them in order moves one unit along one axis — the two
        structural facts that make Hilbert sorting a locality-preserving
        loader."""
        side = 1 << bits
        cells = np.array(
            [
                [(index >> (bits * d)) & (side - 1) for d in range(dims)]
                for index in range(side**dims)
            ],
            dtype=np.uint64,
        )
        keys = hilbert_keys(cells, bits).tolist()
        assert sorted(keys) == list(range(side**dims))
        walk = [row for _, row in sorted(zip(keys, cells.tolist()))]
        for here, there in zip(walk, walk[1:]):
            assert sum(abs(a - b) for a, b in zip(here, there)) == 1

    def test_dims_one_returns_cells(self) -> None:
        cells = np.array([[5], [0], [7]], dtype=np.uint64)
        assert hilbert_keys(cells, 3).tolist() == [5, 0, 7]

    def test_empty_batch(self) -> None:
        assert hilbert_keys(np.empty((0, 3), dtype=np.uint64), 4).tolist() == []

    def test_rejects_oversized_cells(self) -> None:
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            hilbert_keys(np.array([[4, 0]], dtype=np.uint64), 2)

    def test_rejects_wrong_rank(self) -> None:
        with pytest.raises(ValueError, match="must be"):
            hilbert_keys(np.array([1, 2, 3], dtype=np.uint64), 4)
        with pytest.raises(ValueError, match="at least one coordinate"):
            hilbert_keys(np.empty((2, 0), dtype=np.uint64), 4)


class TestQuantize:
    @given(
        point_arrays(coords=st.integers(-50, 150).map(float), max_dims=4),
        st.integers(1, 10),
    )
    def test_batch_quantize_equals_scalar(self, points, bits: int) -> None:
        dims = points.shape[1]
        lows = [0.0] * dims
        highs = [100.0] * dims
        cells = quantize_batch(points, lows, highs, bits)
        expected = [quantize(row, lows, highs, bits) for row in points.tolist()]
        assert cells.tolist() == expected

    @given(point_arrays(coords=finite, max_dims=3))
    def test_degenerate_and_inverted_extents_quantize_to_zero(self, points) -> None:
        dims = points.shape[1]
        lows = [10.0] * dims
        highs = [10.0] * dims  # extent 0 -> cell 0, as in the scalar path
        assert quantize_batch(points, lows, highs, 8).tolist() == [
            quantize(row, lows, highs, 8) for row in points.tolist()
        ]
        highs = [5.0] * dims  # negative extent is also "not positive"
        assert quantize_batch(points, lows, highs, 8).tolist() == [
            quantize(row, lows, highs, 8) for row in points.tolist()
        ]

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            quantize_batch(
                np.array([[np.nan, 0.0]]), [0.0, 0.0], [1.0, 1.0], 4
            )

    @given(point_arrays(coords=coded, max_dims=4), st.integers(1, 10))
    def test_fused_keys_equal_scalar_composition(self, points, bits: int) -> None:
        dims = points.shape[1]
        lows = [-1000.0] * dims
        highs = [1000.0] * dims
        keys = hilbert_keys_for_points(points, lows, highs, bits).tolist()
        assert keys == [
            hilbert_key(quantize(row, lows, highs, bits), bits)
            for row in points.tolist()
        ]


# -- record codec -------------------------------------------------------------


class TestCodec:
    @given(point_arrays(coords=st.integers(-(2**31), 2**31 - 1).map(float)))
    def test_encode_matches_struct_pack_stream(self, points) -> None:
        dims = points.shape[1]
        packer = struct.Struct(f"<{dims}i")
        expected = b"".join(
            packer.pack(*(int(round(value)) for value in row))
            for row in points.tolist()
        )
        assert encode_points(points) == expected

    @given(point_arrays(coords=st.integers(-(2**31), 2**31 - 1).map(float)))
    def test_decode_matches_struct_iter_unpack(self, points) -> None:
        dims = points.shape[1]
        chunk = encode_points(points)
        packer = struct.Struct(f"<{dims}i")
        expected = [
            tuple(float(value) for value in values)
            for values in packer.iter_unpack(chunk)
        ]
        decoded = decode_points(chunk, dims)
        assert [tuple(row) for row in decoded.tolist()] == expected
        assert decoded.tolist() == points.tolist()  # int32 -> float64 is exact

    def test_int32_boundaries_round_trip(self) -> None:
        edge = np.array(
            [[-(2**31), 2**31 - 1], [0.0, -1.0]], dtype=np.float64
        )
        assert decode_points(encode_points(edge), 2).tolist() == edge.tolist()

    def test_out_of_range_refused_not_wrapped(self) -> None:
        with pytest.raises(ValueError, match="int32"):
            encode_points(np.array([[2.0**31]]))
        with pytest.raises(ValueError, match="int32"):
            encode_points(np.array([[-(2.0**31) - 1.0]]))
        with pytest.raises(struct.error):  # the scalar refusal it mirrors
            struct.Struct("<i").pack(2**31)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=12))
    def test_half_to_even_rounding_matches_python_round(self, halves) -> None:
        values = np.array([[h / 2.0 for h in halves]])
        expected = struct.Struct(f"<{len(halves)}i").pack(
            *(int(round(h / 2.0)) for h in halves)
        )
        assert encode_points(values) == expected

    def test_zero_record_pages(self) -> None:
        assert encode_points(np.empty((0, 3))) == b""
        assert decode_points(b"", 3).shape == (0, 3)

    def test_torn_page_rejected(self) -> None:
        with pytest.raises(ValueError, match="whole number"):
            decode_points(b"\x00" * 10, 3)

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            encode_points(np.array([[np.inf]]))


# -- split policies -----------------------------------------------------------


class TestMidpointEmptyGuard:
    def test_empty_records_return_none_not_crash(self) -> None:
        # Regression (found writing the kernels): max() over no extents.
        empty = np.empty((0, 2))
        assert MidpointSplitPolicy().choose_split([], empty, 2, (10.0, 10.0)) is None

    def test_undersized_groups_return_none(self) -> None:
        records = [Record(0, (1.0, 2.0)), Record(1, (3.0, 4.0))]
        points = point_matrix(records)
        assert (
            MidpointSplitPolicy().choose_split(records, points, 2, (10.0, 10.0))
            is None
        )
