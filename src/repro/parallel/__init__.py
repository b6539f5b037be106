"""Sharded parallel scan for ``RTreeAnonymizer.bulk_load_file(workers=N)``.

Plan one contiguous Hilbert-key shard range per worker from a sampled
key-quantile pass (:mod:`repro.parallel.planner`), scan and sort the
shards from disjoint file slices in a `multiprocessing` worker pool, and
concatenate the merged shard runs into one ``(key, rid)``-ordered record
stream for the buffer-tree loader — the same stream for any worker count
(:mod:`repro.parallel.engine`).
"""

from repro.parallel.engine import (
    ShardRun,
    ShardScan,
    effective_pool_size,
    scan_file_shards,
    shard_record_stream,
)
from repro.parallel.planner import (
    DEFAULT_SAMPLE_SIZE,
    ShardPlan,
    plan_file_shards,
    plan_from_sample,
    sample_file_keys,
    slice_bounds,
)

__all__ = [
    "DEFAULT_SAMPLE_SIZE",
    "ShardPlan",
    "effective_pool_size",
    "ShardRun",
    "ShardScan",
    "plan_file_shards",
    "plan_from_sample",
    "sample_file_keys",
    "scan_file_shards",
    "shard_record_stream",
    "slice_bounds",
]
