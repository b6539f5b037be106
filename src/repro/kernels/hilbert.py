"""Batch Hilbert keying: Skilling's transform over coordinate columns.

The scalar oracle is :mod:`repro.index.hilbert`, which walks one record at
a time.  This module runs the same three passes — inverse-undo, Gray
decode, bit interleave — over ``(N, dims)`` cell arrays, so the per-bit
work is ``dims * bits`` vector operations instead of ``N`` Python loops.

Bit-identity notes (each is covered by a property test):

* ``quantize_batch`` mirrors the scalar ``quantize`` operation order
  exactly — ``(value - low) / extent * top`` in float64, truncate toward
  zero, clamp into ``[0, top]`` — because ``np.trunc`` matches ``int()``
  and clamp-after-truncate equals the scalar ``min(max(int(x), 0), top)``
  for every finite input.  Non-finite inputs raise ``ValueError`` where the
  scalar path raises ``ValueError``/``OverflowError`` per coordinate; the
  kernel rejects the whole batch up front (a defined divergence: same
  refusal, one exception type).
* Keys wider than 64 bits (``dims * bits > 64`` — census and agrawal at
  the default 10 bits are 90-bit keys) are accumulated MSB-first into
  uint64 words and combined into arbitrary-precision Python ints via an
  object array, so the returned keys equal the scalar keys as integers,
  not merely modulo ``2**64``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def quantize_batch(
    points: np.ndarray,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> np.ndarray:
    """Scale an ``(N, dims)`` float array into the ``bits``-bit grid.

    Returns an ``(N, dims)`` uint64 cell array; element-wise equal to the
    scalar ``repro.index.hilbert.quantize`` on every finite input.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (N, dims), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("cannot quantize non-finite coordinates")
    low = np.asarray(lows, dtype=np.float64)
    high = np.asarray(highs, dtype=np.float64)
    top = (1 << bits) - 1
    extent = high - low
    positive = extent > 0
    scaled = (pts - low) / np.where(positive, extent, 1.0) * top
    if not np.isfinite(scaled).all():
        raise ValueError("quantization overflowed float range")
    cells = np.clip(np.trunc(scaled), 0.0, float(top))
    cells = np.where(positive, cells, 0.0)
    return cells.astype(np.uint64)


def hilbert_keys(cells: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert keys of an ``(N, dims)`` uint64 cell array.

    Element-wise equal to ``repro.index.hilbert.hilbert_key`` on each row.
    Returns a uint64 vector when ``dims * bits <= 64``, else an object
    vector of Python ints (the keys only feed sorting and merging, both
    of which compare uint64 and int interchangeably).
    """
    grid = np.ascontiguousarray(cells, dtype=np.uint64)
    if grid.ndim != 2:
        raise ValueError(f"cells must be (N, dims), got shape {grid.shape}")
    n, dimensions = grid.shape
    if dimensions == 0:
        raise ValueError("need at least one coordinate")
    if bits < 64 and bool((grid >> np.uint64(bits)).any()):
        raise ValueError(f"coordinate does not fit in {bits} bits")
    if dimensions == 1:
        return grid[:, 0].copy()
    # Column-major views: x[i] is the i-th coordinate over all records.
    x = [grid[:, i].copy() for i in range(dimensions)]
    # Skilling's inverse-undo pass.  i == 0 only ever takes the mask branch
    # (the swap with itself is a no-op), so it collapses to one where().
    q = 1 << (bits - 1)
    while q > 1:
        p = q - 1
        x[0] = np.where((x[0] & q) != 0, x[0] ^ p, x[0])
        for i in range(1, dimensions):
            mask = (x[i] & q) != 0
            t = (x[0] ^ x[i]) & p
            x[0] = np.where(mask, x[0] ^ p, x[0] ^ t)
            x[i] = np.where(mask, x[i], x[i] ^ t)
        q >>= 1
    # Gray encode.
    for i in range(1, dimensions):
        x[i] = x[i] ^ x[i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = 1 << (bits - 1)
    while q > 1:
        t = np.where((x[dimensions - 1] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for i in range(dimensions):
        x[i] = x[i] ^ t
    return _interleave_columns(x, bits, n)


def _interleave_columns(
    x: list[np.ndarray], bits: int, n: int
) -> np.ndarray:
    """Interleave column vectors MSB-first, spilling into 64-bit words."""
    words: list[tuple[np.ndarray, int]] = []
    current = np.zeros(n, dtype=np.uint64)
    width = 0
    one = np.uint64(1)
    for bit in range(bits - 1, -1, -1):
        shift = np.uint64(bit)
        for column in x:
            current = (current << one) | ((column >> shift) & one)
            width += 1
            if width == 64:
                words.append((current, 64))
                current = np.zeros(n, dtype=np.uint64)
                width = 0
    if width or not words:
        words.append((current, width))
    if len(words) == 1:
        return words[0][0]
    result = words[0][0].astype(object)
    for word, word_width in words[1:]:
        result = result * (1 << word_width) + word.astype(object)
    return result


def hilbert_keys_for_points(
    points: np.ndarray,
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> np.ndarray:
    """Quantize and key an ``(N, dims)`` point batch in one call.

    The fused form the bulk-load and sharded-scan call sites use; equal to
    ``hilbert_key(quantize(point, lows, highs, bits), bits)`` row-wise.
    """
    return hilbert_keys(quantize_batch(points, lows, highs, bits), bits)
