"""The consolidated front door: ``repro.api``.

One small, keyword-only surface over the anonymization stack, so callers
(and the CLI, which goes through this module exclusively) never assemble
schemas, loaders, pools and durability managers by hand:

* :func:`open` — create an :class:`~repro.core.anonymizer.RTreeAnonymizer`
  from a :class:`~repro.dataset.schema.Schema`, a
  :class:`~repro.dataset.table.Table`, or a record-file path (the schema
  is synthesized by one streaming min/max pass — the file is *not*
  materialized).  Pass ``durability=DurabilityConfig(dir=...)`` for crash
  safety.  The anonymizer is the single-writer handle:
  ``load`` (bulk ingestion, optionally sharded with ``workers=``),
  ``insert``/``insert_batch``/``delete``/``update``, ``release`` (a
  k-anonymous release as one frozen :class:`Release`: the table, its
  audit record, and its digest), ``checkpoint`` and ``close`` (or use it
  as a context manager).
* :func:`recover` — rebuild a durable anonymizer from its directory after
  a crash; the returned :class:`~repro.durability.recovery.RecoveryResult`
  holds the live ``anonymizer`` and the replay evidence.
* :func:`serve` — a thread-safe :class:`~repro.serve.AnonymizerService`
  that serves the same :class:`Release`, stamped with its epoch, to
  concurrent readers while a single writer thread applies queued
  mutations (see docs/API.md "Serving").
* ``service.query(...)`` on a service — §5.4 point-lookup,
  range-COUNT, group-by and distinct-count queries answered by one
  columnar scan of the release's partitions (:class:`~repro.query.
  QueryEngine`; see docs/API.md "Querying releases").

The migration table from the older layered API lives in ``docs/API.md``.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.core.anonymizer import DEFAULT_BASE_K, RTreeAnonymizer
from repro.core.partition import Release
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability.manager import CheckpointResult, DurabilityConfig
from repro.durability.recovery import RecoveryResult, recover
from repro.index.split import SplitPolicy
from repro.query.engine import (
    QueryEngine,
    QueryResult,
    group_by_queries,
    point_query,
)
from repro.query.ranges import RangeQuery
from repro.serve import AnonymizerService, ServiceConfig, TelemetryConfig
from repro.storage.buffer_pool import BufferPool

# Unused here: perfbench's traced pass wraps these two names on this module
# by attribute.  ROADMAP item 1 (perfbench reads the repo's own spans)
# removes them.
from repro.core.partition import release_digest  # noqa: F401
from repro.obs.audit import audit_release  # noqa: F401

__all__ = [
    "AnonymizerService",
    "CheckpointResult",
    "QueryEngine",
    "QueryResult",
    "RTreeAnonymizer",
    "RangeQuery",
    "RecoveryResult",
    "Release",
    "ServiceConfig",
    "TelemetryConfig",
    "group_by_queries",
    "open",
    "point_query",
    "recover",
    "serve",
]


def open(
    source: "Schema | Table | str | Path",
    *,
    base_k: int = DEFAULT_BASE_K,
    durability: DurabilityConfig | None = None,
    pool: "BufferPool[Record] | None" = None,
    split_policy: SplitPolicy | None = None,
    leaf_capacity: int | None = None,
) -> RTreeAnonymizer:
    """Create an anonymizer for a schema, table, or record file.

    A :class:`Schema` or :class:`Table` is used directly (a table's
    records are *not* loaded — call :meth:`RTreeAnonymizer.load`).  A path
    is scanned once, streaming, to synthesize a numeric schema from the
    data extent; pass the same path to :meth:`RTreeAnonymizer.load` to
    ingest it.
    """
    if isinstance(source, Schema):
        schema_table = Table(source, ())
    elif isinstance(source, Table):
        schema_table = source
    elif isinstance(source, (str, Path)):
        schema_table = Table(_schema_from_file(Path(source)), ())
    else:
        raise TypeError(
            f"cannot open {type(source).__name__}: expected a Schema, "
            "Table, or record-file path"
        )
    return RTreeAnonymizer(
        schema_table,
        base_k=base_k,
        split_policy=split_policy,
        pool=pool,
        leaf_capacity=leaf_capacity,
        durability=durability,
    )


def serve(
    source: "Schema | Table | str | Path",
    *,
    service_config: ServiceConfig | None = None,
    **kwargs: object,
) -> AnonymizerService:
    """A thread-safe :class:`~repro.serve.AnonymizerService` around
    :func:`open`'s anonymizer (``kwargs`` go to :func:`open`)."""
    engine = open(source, **kwargs)  # type: ignore[arg-type]
    try:
        return AnonymizerService(engine, service_config)
    except BaseException:
        engine.close()
        raise


def _schema_from_file(path: Path) -> Schema:
    """One streaming pass over a record file to bound each attribute."""
    from repro.dataset.io import RecordFileReader

    reader = RecordFileReader(path)
    dimensions = reader.dimensions
    lows = [math.inf] * dimensions
    highs = [-math.inf] * dimensions
    for point in reader.iter_points():
        for dimension, value in enumerate(point):
            if value < lows[dimension]:
                lows[dimension] = value
            if value > highs[dimension]:
                highs[dimension] = value
    if not len(reader) or math.isinf(lows[0]):
        lows = [0.0] * dimensions
        highs = [1.0] * dimensions
    return Schema(
        tuple(
            Attribute.numeric(f"a{dimension}", lows[dimension], highs[dimension])
            for dimension in range(dimensions)
        )
    )
