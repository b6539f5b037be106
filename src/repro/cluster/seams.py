"""Scatter-gather release assembly: stitch shard runs, repair the seams.

A cluster release gathers one sorted run per shard — that shard's
records in ``(Hilbert key, rid)`` order — and must publish *exactly*
what a single-writer service holding all the records would publish under
the ``"hilbert"`` strategy.  Three already-proven facts compose into
that guarantee:

1. routing sends every record to the shard owning its key, and shards
   own contiguous ascending key ranges, so concatenating the runs in
   shard order *is* the global ``(key, rid)`` sort;
2. :func:`repro.parallel.engine.stitched_chunks` chunks the runs on the
   global 2k grid with cross-seam boundary repair, producing exactly the
   serial :func:`repro.index.bulk.chunk_with_floor` grouping of that
   concatenation (the ≤2k records straddling each shard seam are
   re-chunked across it, so the k-floor holds globally — SKALD's
   aggregation pass, already differential-tested in ``repro.parallel``);
3. :func:`repro.core.anonymizer.build_compacted_partitions` is the one
   shared publish path, so identical groups become identical partitions
   and therefore identical release digests.

Every assembled release runs through the global
:data:`~repro.obs.AUDITOR` when it is enabled — strict mode gates the
cluster's publish site, shard seams included, exactly as it gates the
single-writer's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.anonymizer import build_compacted_partitions
from repro.core.partition import AnonymizedTable
from repro.obs import AUDITOR, OBS, TRACE
from repro.obs.audit import audit_release
from repro.parallel.engine import ShardRun, stitched_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.schema import Schema

__all__ = ["assemble_release"]


def assemble_release(
    schema: "Schema",
    runs: Sequence[ShardRun],
    k: int,
    base_k: int,
) -> tuple[AnonymizedTable, dict[str, object]]:
    """Stitch per-shard runs into one audited k-anonymous release.

    Returns ``(table, audit_record)``.  Raises ``ValueError`` when the
    shards hold fewer than ``k`` records in total (no k-anonymous
    grouping exists), matching the serial path.
    """
    with OBS.span("cluster.assemble"), TRACE.span(
        "cluster.assemble", "cluster", k=k, shards=len(runs)
    ):
        groups = list(stitched_chunks(runs, k))
        partitions = build_compacted_partitions(groups)
        if OBS.enabled:
            OBS.count("cluster.releases")
            OBS.count(
                "cluster.release_records",
                sum(len(partition.records) for partition in partitions),
            )
        table = AnonymizedTable(schema, partitions)
        if AUDITOR.enabled:
            AUDITOR.on_release(table, k, base_k=base_k)
            audit = AUDITOR.latest
            assert audit is not None
        else:
            audit = audit_release(table, k, base_k=base_k)
        return table, audit
