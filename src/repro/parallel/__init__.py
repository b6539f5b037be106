"""Sharded parallel bulk anonymization.

Public surface of the tentpole engine: plan contiguous Hilbert-key shard
ranges from a sampled key-quantile pass (:mod:`repro.parallel.planner`),
scan and sort the shards in a `multiprocessing` worker pool, and stitch
the runs — with cross-seam boundary repair — into output that is
bit-for-bit identical to the serial Hilbert loaders for any worker count
(:mod:`repro.parallel.engine`).
"""

from repro.parallel.engine import (
    ShardRun,
    ShardScan,
    effective_pool_size,
    parallel_bulk_load,
    parallel_bulk_load_file,
    parallel_hilbert_partitions,
    scan_file_shards,
    scan_record_shards,
    shard_record_stream,
    stitched_chunks,
)
from repro.parallel.planner import (
    DEFAULT_SAMPLE_SIZE,
    ShardPlan,
    plan_file_shards,
    plan_from_sample,
    plan_record_shards,
    sample_file_keys,
    sample_record_keys,
    slice_bounds,
)

__all__ = [
    "DEFAULT_SAMPLE_SIZE",
    "ShardPlan",
    "effective_pool_size",
    "ShardRun",
    "ShardScan",
    "parallel_bulk_load",
    "parallel_bulk_load_file",
    "parallel_hilbert_partitions",
    "plan_file_shards",
    "plan_from_sample",
    "plan_record_shards",
    "sample_file_keys",
    "sample_record_keys",
    "scan_file_shards",
    "scan_record_shards",
    "shard_record_stream",
    "slice_bounds",
    "stitched_chunks",
]
