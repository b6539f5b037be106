"""Sharded parallel scan for ``RTreeAnonymizer.bulk_load_file(workers=N)``.

Slice the record file into one contiguous record-offset slice per worker,
key and sort each slice into a ``(key, rid)``-ordered run in a
`multiprocessing` worker pool, and merge the runs once into the one
record stream the buffer-tree loader consumes — the same stream for any
worker count (:mod:`repro.parallel.engine`).
"""

from repro.parallel.engine import (
    effective_pool_size,
    scan_file_shards,
    slice_bounds,
)

__all__ = [
    "effective_pool_size",
    "scan_file_shards",
    "slice_bounds",
]
