"""Vectorized record codec: one buffer op per page, not one struct per row.

The on-disk format (``repro.dataset.io``) is rows of little-endian int32
quasi-identifier values.  The per-record ``struct`` codec (the writer's
``write_point`` and the test suite's page-decode oracle) packs and unpacks
them one record at a time; these kernels move whole pages through
``np.frombuffer``/``ndarray.tobytes``, which is byte-exact because a
C-contiguous ``(N, dims)`` ``<i4`` array *is* the page layout.

Bit-identity notes:

* Decode: ``int32 -> float64`` is exact for every int32 value, so decoded
  points equal the scalar ``tuple(float(v) for v in values)`` rows.
* Encode: ``np.rint`` rounds half-to-even exactly like Python ``round``,
  so the written bytes equal ``struct.pack("<i", int(round(value)))``
  per coordinate.  Values that round outside int32 raise ``ValueError``
  (the scalar path raises ``struct.error``) instead of numpy's silent
  wraparound — a defined divergence trap, same refusal either way.
* Zero-record pages are well-defined in both directions: an empty bytes
  object decodes to a ``(0, dims)`` array and a ``(0, dims)`` array
  encodes to ``b""``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

#: The on-disk cell type: little-endian int32, as in ``struct "<i"``.
RECORD_DTYPE = np.dtype("<i4")


def decode_points(chunk: bytes, dimensions: int) -> np.ndarray:
    """Decode a page of packed records into an ``(N, dims)`` float64 array.

    ``chunk`` must hold a whole number of records; the reader enforces
    that with its short-read check, and this kernel re-checks so a direct
    caller cannot silently drop a torn tail.
    """
    if dimensions <= 0:
        raise ValueError("dimensions must be positive")
    record_bytes = dimensions * RECORD_DTYPE.itemsize
    if len(chunk) % record_bytes:
        raise ValueError(
            f"page of {len(chunk)} bytes is not a whole number of "
            f"{record_bytes}-byte records"
        )
    cells = np.frombuffer(chunk, dtype=RECORD_DTYPE)
    return cells.reshape(-1, dimensions).astype(np.float64)


def encode_points(points: np.ndarray | Sequence[Sequence[float]]) -> bytes:
    """Encode an ``(N, dims)`` point array into packed record bytes.

    Byte-for-byte equal to the scalar writer's per-record
    ``struct.pack("<{dims}i", *(int(round(v)) for v in point))`` stream.
    """
    values = np.ascontiguousarray(points, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"points must be (N, dims), got shape {values.shape}")
    if values.shape[0] == 0:
        return b""
    if not np.isfinite(values).all():
        raise ValueError("cannot encode non-finite coordinates")
    rounded = np.rint(values)
    if bool((rounded < _INT32_MIN).any() or (rounded > _INT32_MAX).any()):
        raise ValueError("coordinate rounds outside the int32 record range")
    return np.ascontiguousarray(
        rounded.astype(RECORD_DTYPE)
    ).tobytes()

