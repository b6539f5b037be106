"""The typed serving contract: :class:`ServiceProtocol`.

Both serving backends — the single-writer
:class:`~repro.serve.service.AnonymizerService` and the N-process
:class:`~repro.cluster.router.ShardedCluster` — expose the same surface:
submit mutations (getting a future back), read immutable release
snapshots, observe epoch/health/metrics, close.  This module pins that
surface down as a runtime-checkable :class:`typing.Protocol` so callers
(and :func:`repro.api.serve`) can be backend-agnostic::

    service = repro.api.serve(schema, shards=4)
    assert isinstance(service, ServiceProtocol)
    service.submit_insert(record).result()
    snapshot = service.release(k=25)

The protocol is intentionally the *common* surface.  Backend-specific
extras (the service's ``journal``, the cluster's ``plan`` and
``worker_pids``) stay on the concrete classes; code that needs them is
already backend-aware.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.core.leafscan import Constraint
    from repro.dataset.record import Record
    from repro.dataset.table import Table
    from repro.query.engine import QueryResult
    from repro.query.ranges import RangeQuery
    from repro.serve.cache import ReleaseSnapshot

__all__ = ["ServiceProtocol"]


@runtime_checkable
class ServiceProtocol(Protocol):
    """What every serving backend offers, single-writer or sharded.

    Mutations are asynchronous: ``submit_*`` enqueues the operation and
    returns a :class:`~concurrent.futures.Future` that resolves once the
    write is applied (and, for durable backends, logged) — or raises
    :class:`~repro.serve.service.ServiceClosedError` when the backend (or
    the shard owning the key) is closed or has crashed.  Reads are
    synchronous and immutable: :meth:`release` returns an epoch-stamped
    :class:`~repro.serve.cache.ReleaseSnapshot` that never reflects a
    tree mid-mutation.
    """

    # -- write path ----------------------------------------------------------

    def submit_insert(
        self, record: "Record", timeout: float | None = None
    ) -> "Future[object]":
        """Queue one insert; the future resolves once applied."""
        ...

    def submit_insert_batch(
        self, records: "Table | Iterable[Record]", timeout: float | None = None
    ) -> "Future[object]":
        """Queue a batch insert; the future resolves to the consumed count."""
        ...

    def submit_delete(
        self, rid: int, point: Sequence[float], timeout: float | None = None
    ) -> "Future[object]":
        """Queue one delete; the future resolves to the removed record."""
        ...

    def submit_update(
        self,
        rid: int,
        old_point: Sequence[float],
        record: "Record",
        timeout: float | None = None,
    ) -> "Future[object]":
        """Queue one update; the future resolves to the replaced record."""
        ...

    # -- read path -----------------------------------------------------------

    def release(
        self,
        k: int,
        *,
        compacted: bool = True,
        constraint: "Constraint | None" = None,
        strategy: str = ...,  # type: ignore[assignment]
    ) -> "ReleaseSnapshot":
        """Serve an immutable k-anonymous release snapshot.

        The default ``strategy`` is backend-specific (``"subtree"`` for
        the single service, ``"hilbert"`` for the cluster); both accept
        the keyword explicitly.
        """
        ...

    def query(
        self,
        queries: "RangeQuery | Sequence[RangeQuery]",
        *,
        k: int,
        kind: str = "count",
    ) -> "QueryResult":
        """Answer §5.4 queries against the k-release with a columnar scan.

        The whole batch is evaluated against one snapshot; the result is
        stamped with that snapshot's epoch and digest, and its values are
        bit-identical to the scalar oracle over the same snapshot.  A
        query whose dimension count differs from the release's raises
        ``ValueError``.
        """
        ...

    # -- observability -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic write-generation counter (aggregated across shards)."""
        ...

    def health(self) -> dict[str, object]:
        """The live health document (served at ``/healthz``)."""
        ...

    def metrics_text(self) -> str:
        """The Prometheus text exposition (served at ``/metrics``)."""
        ...

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain pending writes and shut the backend down.  Idempotent."""
        ...
