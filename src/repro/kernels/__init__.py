"""Numpy-backed columnar kernels for the anonymizer's hot paths.

Two kernels are the only production path for their operation: the record
codec (page encode/decode) and batch Hilbert keying.  Each was measured
faster than the scalar code it replaced; that scalar code now lives in the
test suite as the differential oracle (``tests/oracles.py``).  See
``docs/KERNELS.md`` for the measurements and the checklist for adding a
kernel.
"""

from repro.kernels.codec import RECORD_DTYPE, decode_points, encode_points
from repro.kernels.hilbert import (
    hilbert_keys,
    hilbert_keys_for_points,
    quantize_batch,
)

__all__ = [
    "RECORD_DTYPE",
    "decode_points",
    "encode_points",
    "hilbert_keys",
    "hilbert_keys_for_points",
    "quantize_batch",
]
