"""The consolidated front door: ``repro.api``.

One small, keyword-only surface over the anonymization stack, so callers
(and the CLI, which goes through this module exclusively) never assemble
schemas, loaders, pools and durability managers by hand:

* :func:`open` — create an :class:`Anonymizer` handle from a
  :class:`~repro.dataset.schema.Schema`, a
  :class:`~repro.dataset.table.Table`, or a record-file path (the schema
  is synthesized by one streaming min/max pass — the file is *not*
  materialized).  Pass ``durability=DurabilityConfig(dir=...)`` for crash
  safety.
* :meth:`Anonymizer.load` — bulk ingestion from records or a file, with
  optional sharded parallelism (``workers=``).
* :meth:`Anonymizer.release` — a k-anonymous release as one frozen
  :class:`Release`: the table, its audit record, and its digest.
* :func:`recover` — rebuild a durable handle from its directory after a
  crash; the evidence trail is on :attr:`Anonymizer.recovery`.
* :func:`open` with ``serve=True`` (or :func:`serve` directly) — a
  thread-safe :class:`~repro.serve.AnonymizerService` handle that serves
  the same :class:`Release`, stamped with its epoch, to concurrent
  readers while a single writer thread applies queued mutations (see
  docs/API.md "Serving").
* ``service.query(...)`` on a serving handle — §5.4 point-lookup,
  range-COUNT, group-by and distinct-count queries answered by one
  columnar scan of the release's partitions (:class:`~repro.query.
  QueryEngine`; see docs/API.md "Querying releases").

The migration table from the older layered API lives in ``docs/API.md``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.anonymizer import DEFAULT_BASE_K, RTreeAnonymizer
from repro.core.leafscan import Constraint
from repro.core.partition import Release
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability.manager import CheckpointResult, DurabilityConfig
from repro.durability.recovery import RecoveryResult
from repro.durability.recovery import recover as _recover_directory
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
    "Anonymizer",
    "AnonymizerService",
    "CheckpointResult",
    "QueryEngine",
    "QueryResult",
    "RangeQuery",
    "Release",
    "ServiceConfig",
    "TelemetryConfig",
    "group_by_queries",
    "open",
    "point_query",
    "recover",
    "serve",
]


class Anonymizer:
    """The facade handle around one :class:`RTreeAnonymizer`.

    Construct via :func:`open` or :func:`recover`, not directly.  The
    underlying engine stays reachable as :attr:`engine` for callers that
    need the full layered API (multi-granular releases, tree inspection).
    """

    def __init__(
        self,
        engine: RTreeAnonymizer,
        *,
        recovery: RecoveryResult | None = None,
    ) -> None:
        self._engine = engine
        #: The :class:`RecoveryResult` when this handle came from
        #: :func:`recover`, else ``None``.
        self.recovery = recovery

    # -- ingestion -----------------------------------------------------------

    def load(
        self,
        source: "Table | Iterable[Record] | str | Path",
        *,
        workers: int | None = None,
        batch_size: int = 8_192,
        first_rid: int = 0,
    ) -> int:
        """Bulk-anonymize a table, record stream, or record file.

        Returns the number of records consumed.  ``workers`` selects the
        sharded parallel engine for file sources (deterministic for every
        worker count); it is rejected for in-memory sources
        (:meth:`RTreeAnonymizer.load`).
        """
        return self._engine.load(
            source, workers=workers, batch_size=batch_size, first_rid=first_rid
        )

    def insert(self, record: Record) -> None:
        """Insert one record incrementally."""
        self._engine.insert(record)

    def insert_batch(self, records: "Table | Iterable[Record]") -> int:
        """Insert a batch through the amortized buffered path."""
        return self._engine.insert_batch(records)

    def delete(self, rid: int, point: Sequence[float]) -> Record:
        """Delete one record; k-occupancy is restored before returning."""
        return self._engine.delete(rid, point)

    def update(
        self, rid: int, old_point: Sequence[float], record: Record
    ) -> Record:
        """Move one record's quasi-identifier point."""
        return self._engine.update(rid, old_point, record)

    # -- releases ------------------------------------------------------------

    def release(
        self,
        k: int,
        *,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> Release:
        """Publish a k-anonymous release with its audit and digest; see
        :meth:`RTreeAnonymizer.release`."""
        return self._engine.release(k, constraint=constraint, strategy=strategy)

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> CheckpointResult:
        """Snapshot durable state and truncate the WAL; see
        :meth:`RTreeAnonymizer.checkpoint`."""
        lsn = self._engine.checkpoint()
        manager = self._engine.durability
        assert manager is not None  # checkpoint() raised otherwise
        return CheckpointResult(lsn=lsn, directory=manager.directory)

    def close(self) -> None:
        """Flush and release durable resources (safe to call when none)."""
        self._engine.close()

    def __enter__(self) -> "Anonymizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def engine(self) -> RTreeAnonymizer:
        """The underlying layered engine, for advanced use."""
        return self._engine

    @property
    def schema(self) -> Schema:
        return self._engine.schema

    @property
    def base_k(self) -> int:
        return self._engine.base_k

    @property
    def durable(self) -> bool:
        return self._engine.durability is not None

    def __len__(self) -> int:
        return len(self._engine)


def open(
    source: "Schema | Table | str | Path",
    *,
    base_k: int = DEFAULT_BASE_K,
    durability: DurabilityConfig | None = None,
    pool: "BufferPool[Record] | None" = None,
    split_policy: SplitPolicy | None = None,
    leaf_capacity: int | None = None,
    serve: bool = False,
    service_config: ServiceConfig | None = None,
) -> "Anonymizer | AnonymizerService":
    """Create an anonymizer handle for a schema, table, or record file.

    A :class:`Schema` or :class:`Table` is used directly (a table's
    records are *not* loaded — call :meth:`Anonymizer.load`).  A path is
    scanned once, streaming, to synthesize a numeric schema from the data
    extent; pass the same path to :meth:`Anonymizer.load` to ingest it.

    ``serve=True`` returns a thread-safe
    :class:`~repro.serve.AnonymizerService` instead: concurrent readers
    get cached, epoch-validated release snapshots while mutations flow
    through a bounded, group-committed write queue.  ``service_config``
    tunes the queue bound, batch size and cache.
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
    engine = RTreeAnonymizer(
        schema_table,
        base_k=base_k,
        split_policy=split_policy,
        pool=pool,
        leaf_capacity=leaf_capacity,
        durability=durability,
    )
    if serve:
        return AnonymizerService(engine, service_config)
    if service_config is not None:
        raise ValueError("service_config requires serve=True")
    return Anonymizer(engine)


def serve(
    source: "Schema | Table | str | Path",
    *,
    service_config: ServiceConfig | None = None,
    **kwargs: object,
) -> AnonymizerService:
    """Shorthand for :func:`open` with ``serve=True``."""
    handle = open(
        source,
        serve=True,
        service_config=service_config,
        **kwargs,  # type: ignore[arg-type]
    )
    assert isinstance(handle, AnonymizerService)
    return handle


def recover(
    directory: str | Path,
    *,
    split_policy: SplitPolicy | None = None,
    pool: "BufferPool[Record] | None" = None,
    group_commit_window: float = 0.0,
    allow_torn_tail: bool = False,
) -> Anonymizer:
    """Rebuild a durable anonymizer from its directory after a crash.

    Raises :class:`~repro.durability.errors.RecoveryError` on any
    corruption.  The returned handle is live (its WAL is reattached) and
    carries the replay evidence on :attr:`Anonymizer.recovery`.
    """
    result = _recover_directory(
        directory,
        split_policy=split_policy,
        pool=pool,
        group_commit_window=group_commit_window,
        allow_torn_tail=allow_torn_tail,
    )
    return Anonymizer(result.anonymizer, recovery=result)


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
