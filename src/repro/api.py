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
* :meth:`Anonymizer.release` — a k-anonymous release as a typed
  :class:`ReleaseResult`: the table, its audit record, and its digest.
* :func:`recover` — rebuild a durable handle from its directory after a
  crash; the evidence trail is on :attr:`Anonymizer.recovery`.
* :func:`open` with ``serve=True`` (or :func:`serve` directly) — a
  thread-safe :class:`~repro.serve.AnonymizerService` handle that serves
  immutable release snapshots to concurrent readers while a single
  writer thread applies queued mutations (see docs/API.md "Serving").
* ``service.query(...)`` on either serving backend — §5.4 point-lookup,
  range-COUNT, group-by and distinct-count queries answered by one
  columnar scan of the release's partitions (:class:`~repro.query.
  QueryEngine`; see docs/API.md "Querying releases").

The migration table from the older layered API lives in ``docs/API.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.anonymizer import DEFAULT_BASE_K, RTreeAnonymizer
from repro.core.leafscan import Constraint
from repro.core.partition import AnonymizedTable, release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import RecoveryResult
from repro.durability.recovery import recover as _recover_directory
from repro.index.split import SplitPolicy
from repro.cluster import ClusterConfig, ShardedCluster
from repro.obs import AUDITOR
from repro.obs.audit import audit_release
from repro.query.engine import (
    QueryEngine,
    QueryResult,
    group_by_queries,
    point_query,
)
from repro.query.ranges import RangeQuery
from repro.serve import (
    AnonymizerService,
    ReleaseSnapshot,
    ServiceConfig,
    ServiceProtocol,
    TelemetryConfig,
)
from repro.storage.buffer_pool import BufferPool

__all__ = [
    "Anonymizer",
    "AnonymizerService",
    "CheckpointResult",
    "ClusterConfig",
    "QueryEngine",
    "QueryResult",
    "RangeQuery",
    "ReleaseResult",
    "ReleaseSnapshot",
    "ServiceConfig",
    "ServiceProtocol",
    "ShardedCluster",
    "TelemetryConfig",
    "group_by_queries",
    "open",
    "point_query",
    "recover",
    "serve",
]


@dataclass(frozen=True)
class ReleaseResult:
    """One published release with its evidence attached.

    ``audit`` is the structured privacy-audit record (always computed —
    through the global :data:`~repro.obs.AUDITOR` when it is enabled, so
    strict-mode gating still applies, otherwise directly).  ``digest`` is
    the sha256 release fingerprint CI compares across runs and crashes.
    """

    table: AnonymizedTable
    audit: dict[str, object]
    digest: str
    k: int

    @property
    def record_count(self) -> int:
        return self.table.record_count

    @property
    def partition_count(self) -> int:
        return len(self.table.partitions)

    @property
    def k_satisfied(self) -> bool:
        return bool(self.audit["k_satisfied"])


@dataclass(frozen=True)
class CheckpointResult:
    """Where a checkpoint landed: its LSN and the directory holding it."""

    lsn: int
    directory: Path


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
        use_kernels: bool | None = None,
    ) -> int:
        """Bulk-anonymize a table, record stream, or record file.

        Returns the number of records consumed.  ``workers`` selects the
        sharded parallel engine for file sources (deterministic for every
        worker count); it is rejected for in-memory sources, which have no
        shardable byte ranges.  ``use_kernels`` overrides the process-wide
        columnar-kernel default for this load (``None`` defers to it); the
        result is bit-identical either way — the flag only trades the
        scalar oracle path for the vectorized one.
        """
        if isinstance(source, (str, Path)):
            return self._engine.bulk_load_file(
                str(source),
                batch_size=batch_size,
                first_rid=first_rid,
                workers=workers,
                use_kernels=use_kernels,
            )
        if workers is not None:
            raise ValueError(
                "workers= applies only to file sources; in-memory records "
                "load through the serial buffer-tree path"
            )
        return self._engine.bulk_load(source)

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
        *,
        k: int,
        constraints: "Constraint | Sequence[Constraint] | None" = None,
        compact: bool = True,
        strategy: str = "subtree",
        use_kernels: bool | None = None,
    ) -> ReleaseResult:
        """Publish a k-anonymous release with its audit and digest.

        ``constraints`` accepts one per-partition predicate or a sequence
        (composed with logical AND).  When the global auditor is enabled
        the release's audit record comes from it — strict mode therefore
        still gates this publish site — otherwise an equivalent record is
        computed directly, so :attr:`ReleaseResult.audit` is never empty.
        """
        constraint = _compose_constraints(constraints)
        table = self._engine.anonymize(
            k,
            compacted=compact,
            constraint=constraint,
            strategy=strategy,
            use_kernels=use_kernels,
        )
        if AUDITOR.enabled and AUDITOR.latest is not None:
            audit = AUDITOR.latest
        else:
            audit = audit_release(table, k, base_k=self._engine.base_k)
        return ReleaseResult(
            table=table, audit=audit, digest=release_digest(table), k=k
        )

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
    shards: int = 1,
    cluster_config: ClusterConfig | None = None,
) -> "Anonymizer | AnonymizerService | ShardedCluster":
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

    ``shards`` > 1 (or an explicit ``cluster_config``) scales serving
    across processes: the handle is a
    :class:`~repro.cluster.ShardedCluster` — the same
    :class:`~repro.serve.ServiceProtocol` surface, backed by one worker
    process per contiguous Hilbert-key range.  The cluster owns its
    engines, so the single-engine knobs (``durability``, ``pool``,
    ``split_policy``, ``leaf_capacity``) are rejected — per-shard WALs
    root at ``ClusterConfig.durability_dir`` instead.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if cluster_config is not None and shards not in (1, cluster_config.shards):
        raise ValueError(
            f"shards={shards} disagrees with cluster_config.shards="
            f"{cluster_config.shards}; pass one or make them match"
        )
    clustered = cluster_config is not None or shards > 1
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
    if clustered:
        if not serve:
            raise ValueError("shards/cluster_config require serve=True")
        for name, value in (
            ("durability", durability),
            ("pool", pool),
            ("split_policy", split_policy),
            ("leaf_capacity", leaf_capacity),
        ):
            if value is not None:
                raise ValueError(
                    f"{name}= does not apply to a sharded cluster; each "
                    "shard owns its engine (use ClusterConfig.durability_dir "
                    "for per-shard WALs)"
                )
        if cluster_config is None:
            cluster_config = ClusterConfig(
                shards=shards,
                service=service_config
                if service_config is not None
                else ServiceConfig(),
            )
        elif service_config is not None:
            raise ValueError(
                "pass service_config inside cluster_config.service when "
                "opening a cluster"
            )
        return ShardedCluster(schema_table, cluster_config, base_k=base_k)
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
    shards: int = 1,
    cluster_config: ClusterConfig | None = None,
    **kwargs: object,
) -> ServiceProtocol:
    """Shorthand for :func:`open` with ``serve=True``.

    Returns the protocol type: an
    :class:`~repro.serve.AnonymizerService` for ``shards=1``, a
    :class:`~repro.cluster.ShardedCluster` beyond — both satisfy
    :class:`~repro.serve.ServiceProtocol`.
    """
    handle = open(
        source,
        serve=True,
        service_config=service_config,
        shards=shards,
        cluster_config=cluster_config,
        **kwargs,  # type: ignore[arg-type]
    )
    assert isinstance(handle, (AnonymizerService, ShardedCluster))
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


def _compose_constraints(
    constraints: "Constraint | Sequence[Constraint] | None",
) -> Constraint | None:
    if constraints is None:
        return None
    if callable(constraints):
        return constraints
    items = tuple(constraints)
    if not items:
        return None
    if len(items) == 1:
        return items[0]

    def conjunction(records: Sequence[Record]) -> bool:
        return all(constraint(records) for constraint in items)

    return conjunction


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
