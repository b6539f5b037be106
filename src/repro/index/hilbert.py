"""Hilbert space-filling curve keys.

§2.1 notes that sort-based bulk-loading "based on space-filling curves
(e.g., the Hilbert curve or Z-ordering)" was tried before settling on the
buffer tree.  This module provides the Hilbert key so the ablation bench
can reproduce the comparison.

The Hilbert mapping uses Skilling's transpose algorithm ("Programming the
Hilbert curve", AIP 2004): coordinates are converted in place to the
transposed Hilbert index, then the bits are interleaved into a single
integer key.
"""

from __future__ import annotations

from typing import Sequence


def hilbert_key(coordinates: Sequence[int], bits: int) -> int:
    """The Hilbert curve index of an integer point.

    ``coordinates`` must each fit in ``bits`` bits.  Points close on the
    returned key are close in space, with better locality than Morton order
    — which is exactly why Hilbert-sorted packing was a plausible loader.
    """
    dimensions = len(coordinates)
    if dimensions == 0:
        raise ValueError("need at least one coordinate")
    x = list(coordinates)
    for value in x:
        if value < 0 or value >> bits:
            raise ValueError(f"coordinate {value} does not fit in {bits} bits")
    if dimensions == 1:
        return x[0]
    # Skilling's inverse-undo pass.
    q = 1 << (bits - 1)
    while q > 1:
        p = q - 1
        for i in range(dimensions):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dimensions):
        x[i] ^= x[i - 1]
    t = 0
    q = 1 << (bits - 1)
    while q > 1:
        if x[dimensions - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dimensions):
        x[i] ^= t
    return _interleave(x, bits)


def _interleave(values: list[int], bits: int) -> int:
    key = 0
    for bit in range(bits - 1, -1, -1):
        for value in values:
            key = (key << 1) | ((value >> bit) & 1)
    return key


def quantize(
    point: Sequence[float],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> list[int]:
    """Scale a real-valued point into the ``bits``-bit integer grid."""
    top = (1 << bits) - 1
    quantized: list[int] = []
    for value, low, high in zip(point, lows, highs):
        extent = high - low
        if extent <= 0:
            quantized.append(0)
            continue
        cell = int((value - low) / extent * top)
        quantized.append(min(max(cell, 0), top))
    return quantized
