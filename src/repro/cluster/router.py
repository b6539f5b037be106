"""The shard router: key-routed writes, scatter-gather reads, one API.

:class:`ShardedCluster` is the N-process serving backend.  At
construction it derives a static :class:`~repro.parallel.planner.
ShardPlan` (sampled key quantiles when the source table carries records,
uniform key-space boundaries otherwise), spawns one
:mod:`~repro.cluster.worker` process per shard over a private socket
pair, and then serves the same :class:`~repro.serve.protocol.
ServiceProtocol` surface as the single-writer
:class:`~repro.serve.service.AnonymizerService`:

* ``submit_insert`` / ``submit_insert_batch`` / ``submit_delete`` route
  by the record's Hilbert key to the owning shard; an update whose old
  and new points land on different shards decomposes into a delete on
  the old owner chained with an insert on the new one;
* ``release`` scatters a ``collect`` to every shard, stitches the sorted
  runs with global-grid seam repair (:mod:`repro.cluster.seams`), and
  caches the audited snapshot under the aggregated cluster epoch;
* ``query`` answers from that assembled snapshot at the router, with no
  per-shard query traffic;
* ``epoch`` / ``health`` / ``metrics_text`` aggregate the shards —
  metrics as shard-labeled ``serve.*`` samples rolled up into one
  ``/metrics`` exposition.

**Failure surface.**  Every shard conversation runs on a dedicated
dispatcher thread with a bounded receive timeout.  A worker that dies
(its socket closes) or wedges past the timeout marks the shard dead:
the in-flight future and everything queued behind it resolve with
:class:`~repro.serve.service.ServiceClosedError`, and later submissions
routed to that shard raise immediately — a crashed shard can never
strand a client on a hung future.
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.cluster.protocol import FrameError, recv_frame, send_frame
from repro.cluster.seams import assemble_release
from repro.cluster.worker import shard_worker_main
from repro.core.anonymizer import DEFAULT_BASE_K
from repro.core.leafscan import Constraint
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.obs import OBS, TRACE
from repro.obs.live import (
    HEALTH_CODES,
    TelemetryConfig,
    TelemetryServer,
    prometheus_cluster_text,
)
from repro.parallel.engine import ShardRun, _mp_context
from repro.parallel.planner import (
    ShardPlan,
    plan_record_shards,
    plan_uniform,
)
from repro.query.engine import QUERY_KINDS, QueryEngine, QueryResult
from repro.query.ranges import RangeQuery
from repro.serve.cache import CacheKey, ReleaseCache, ReleaseSnapshot
from repro.serve.service import ServiceClosedError, ServiceConfig

__all__ = ["ClusterConfig", "ShardedCluster"]

#: Severity order of the watchdog verdicts, for aggregating shard healths.
_STATUS_RANK = {"healthy": 0, "degraded": 1, "stalled": 2}


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """Tuning knobs for a :class:`ShardedCluster` (keyword-only).

    ``shards`` is the process fan-out.  ``service`` is applied to *every*
    shard's inner :class:`~repro.serve.service.AnonymizerService` (queue
    bound, group-commit batch, per-shard journal); ``telemetry`` opts the
    **cluster** into the live layer — one ``/metrics`` + ``/healthz``
    endpoint served by the router with shard-labeled samples (per-shard
    endpoints would need per-shard ports; give the inner ``service`` its
    own telemetry only if you want that).  ``durability_dir`` roots one
    WAL directory per shard (``shard-00/``, ``shard-01/``, ...).
    ``request_timeout`` bounds every dispatcher wait on a worker reply —
    the guarantee that futures resolve even when a worker wedges.
    ``max_pending`` bounds each shard's outbound request queue (the
    router-side backpressure, mirroring the service's ``max_queue``).
    """

    shards: int = 2
    service: ServiceConfig = ServiceConfig()
    telemetry: TelemetryConfig | None = None
    durability_dir: str | Path | None = None
    request_timeout: float = 60.0
    cache_releases: bool = True
    max_pending: int = 1024

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")


class _ShardHandle:
    """One shard's process, socket, and request dispatcher thread."""

    def __init__(
        self,
        index: int,
        process,  # noqa: ANN001 - multiprocessing.Process
        sock: socket.socket,
        timeout: float,
        max_pending: int,
    ) -> None:
        self.index = index
        self.process = process
        self.sock = sock
        self.requests: "queue_module.Queue[tuple | None]" = queue_module.Queue(
            max_pending
        )
        self.dead = False
        self.dead_reason: str | None = None
        #: Last epoch value observed from this shard (survives its death,
        #: so the aggregated cluster epoch never regresses).
        self.last_epoch = 0
        self.sock.settimeout(timeout)
        self.dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-cluster-shard-{index}",
            daemon=True,
        )
        self.dispatcher.start()

    def submit(
        self, op: str, args: tuple, timeout: float | None = None
    ) -> "Future[object]":
        """Enqueue one request; the future resolves with the reply.

        Raises :class:`ServiceClosedError` immediately when the shard is
        already known dead.  ``timeout`` bounds the *enqueue* (queue-full
        backpressure), mirroring the single service's submit timeout.
        """
        if self.dead:
            raise ServiceClosedError(
                f"shard {self.index} is down ({self.dead_reason}); "
                "the cluster cannot accept writes for its key range"
            )
        future: "Future[object]" = Future()
        self.requests.put((op, args, future), timeout=timeout)
        return future

    def _dispatch_loop(self) -> None:
        seq = 0
        while True:
            item = self.requests.get()
            if item is None:
                return
            op, args, future = item
            seq += 1
            try:
                send_frame(self.sock, (seq, op, args))
                reply = recv_frame(self.sock)
            except (FrameError, OSError, TimeoutError) as error:
                self._mark_dead(f"{type(error).__name__}: {error}", future)
                return
            reply_seq, status, value = reply  # type: ignore[misc]
            if reply_seq != seq:
                self._mark_dead(
                    f"protocol desync (reply {reply_seq} to request {seq})",
                    future,
                )
                return
            if status == "ok":
                if op in ("epoch", "barrier"):
                    self.last_epoch = max(self.last_epoch, int(value))  # type: ignore[arg-type]
                future.set_result(value)
            else:
                future.set_exception(
                    value
                    if isinstance(value, BaseException)
                    else RuntimeError(str(value))
                )
            if op == "close":
                return

    def _mark_dead(
        self, reason: str, pending: "Future[object] | None" = None
    ) -> None:
        """Fail the in-flight and queued futures; refuse future submits."""
        self.dead = True
        self.dead_reason = reason
        if OBS.enabled:
            OBS.count("cluster.shard_failures")
        if TRACE.enabled:
            TRACE.instant(
                "cluster.shard_dead", "cluster", shard=self.index, reason=reason
            )
        error = ServiceClosedError(
            f"shard {self.index} worker failed ({reason}); "
            "its pending writes were not acknowledged"
        )
        if pending is not None:
            pending.set_exception(error)
        while True:
            try:
                item = self.requests.get_nowait()
            except queue_module.Empty:
                break
            if item is not None:
                item[2].set_exception(error)
        try:
            self.sock.close()
        except OSError:
            pass

    def stop_dispatcher(self) -> None:
        self.requests.put(None)


class ShardedCluster:
    """N-process sharded serving — a drop-in for ``AnonymizerService``."""

    def __init__(
        self,
        source: "Schema | Table",
        config: ClusterConfig | None = None,
        *,
        base_k: int = DEFAULT_BASE_K,
    ) -> None:
        """Plan the key ranges and spawn one worker per shard.

        ``source`` supplies the schema; when it is a :class:`Table` *with
        records*, those records are also quantile-sampled into a balanced
        shard plan (they are **not** loaded — call :meth:`load`).  A bare
        schema (or empty table) falls back to uniform key-space
        boundaries.
        """
        self._config = config if config is not None else ClusterConfig()
        schema_table = Table(source, ()) if isinstance(source, Schema) else source
        self._schema = schema_table.schema
        self._base_k = base_k
        lows = self._schema.domain_lows()
        highs = self._schema.domain_highs()
        shards = self._config.shards
        records = schema_table.records
        if records:
            self._plan = plan_record_shards(
                records, shards, lows, highs, DEFAULT_HILBERT_BITS
            )
        else:
            self._plan = plan_uniform(shards, lows, highs, DEFAULT_HILBERT_BITS)
        self._cache = ReleaseCache()
        self._release_lock = threading.Lock()
        #: Query engines over the latest release per k: {k: (digest, engine)}.
        self._query_engines: dict[int, tuple[str, QueryEngine]] = {}
        self._query_lock = threading.Lock()
        self._closed = False
        self._shards: list[_ShardHandle] = []
        context = _mp_context()
        durability_root = (
            Path(self._config.durability_dir)
            if self._config.durability_dir is not None
            else None
        )
        for index in range(shards):
            parent_sock, child_sock = socket.socketpair()
            shard_dir: str | None = None
            if durability_root is not None:
                directory = durability_root / f"shard-{index:02d}"
                directory.mkdir(parents=True, exist_ok=True)
                shard_dir = str(directory)
            process = context.Process(
                target=shard_worker_main,
                args=(
                    child_sock,
                    index,
                    self._schema,
                    self._plan,
                    base_k,
                    self._config.service,
                    shard_dir,
                    OBS.enabled,
                ),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            self._shards.append(
                _ShardHandle(
                    index,
                    process,
                    parent_sock,
                    self._config.request_timeout,
                    self._config.max_pending,
                )
            )
        if OBS.enabled:
            OBS.gauge("cluster.shards", shards)
            OBS.gauge("cluster.dead_shards", 0)
        self._telemetry_server: TelemetryServer | None = None
        telemetry = self._config.telemetry
        if telemetry is not None and telemetry.endpoint:
            self._telemetry_server = TelemetryServer(
                self.metrics_text,
                self.health,
                host=telemetry.host,
                port=telemetry.port,
            )
            self._telemetry_server.start()

    # -- introspection -------------------------------------------------------

    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def base_k(self) -> int:
        return self._base_k

    @property
    def plan(self) -> ShardPlan:
        """The static shard map: contiguous Hilbert-key ranges."""
        return self._plan

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def cache(self) -> ReleaseCache:
        return self._cache

    @property
    def dead_shards(self) -> list[int]:
        """Indices of shards whose workers have failed."""
        return [handle.index for handle in self._shards if handle.dead]

    def worker_pids(self) -> list[int]:
        """The shard workers' process ids (the fault suite kills one)."""
        return [handle.process.pid for handle in self._shards]

    def __len__(self) -> int:
        return sum(self._scatter("len", ()))  # type: ignore[arg-type]

    def shard_journals(self) -> list[tuple[tuple, ...]]:
        """Every shard's applied-write journal (``journal=True`` shards).

        Concatenating these replays — each onto a fresh engine for its
        shard — reproduces any cluster release bit for bit; the
        differential suite asserts exactly that.
        """
        return list(self._scatter("journal", ()))

    @property
    def telemetry_address(self) -> tuple[str, int] | None:
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.address

    @property
    def telemetry_url(self) -> str | None:
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.url

    # -- routing -------------------------------------------------------------

    def shard_of(self, point: Sequence[float]) -> int:
        """Which shard owns a quasi-identifier point."""
        return self._plan.shard_of(self._plan.key_of(point))

    def _handle_for(self, point: Sequence[float]) -> _ShardHandle:
        return self._shards[self.shard_of(point)]

    # -- write path ----------------------------------------------------------

    def submit_insert(
        self, record: Record, timeout: float | None = None
    ) -> "Future[object]":
        """Queue one insert on the shard owning the record's key."""
        self._assert_open()
        if OBS.enabled:
            OBS.count("cluster.routed_inserts")
            OBS.count("cluster.routed_records")
        return self._handle_for(record.point).submit(
            "insert_batch", ((record,),), timeout
        )

    def submit_insert_batch(
        self, records: "Table | Iterable[Record]", timeout: float | None = None
    ) -> "Future[object]":
        """Partition a batch by shard; the future sums the consumed counts."""
        self._assert_open()
        stream = records.records if isinstance(records, Table) else tuple(records)
        buckets: dict[int, list[Record]] = {}
        for record in stream:
            buckets.setdefault(self.shard_of(record.point), []).append(record)
        if OBS.enabled:
            OBS.count("cluster.routed_inserts")
            OBS.count("cluster.routed_records", len(stream))
        if not buckets:
            done: "Future[object]" = Future()
            done.set_result(0)
            return done
        futures = [
            self._shards[index].submit(
                "insert_batch", (tuple(members),), timeout
            )
            for index, members in sorted(buckets.items())
        ]
        return _combine(futures, lambda values: sum(values))  # type: ignore[arg-type]

    def submit_delete(
        self, rid: int, point: Sequence[float], timeout: float | None = None
    ) -> "Future[object]":
        self._assert_open()
        if OBS.enabled:
            OBS.count("cluster.routed_deletes")
        return self._handle_for(point).submit(
            "delete", (rid, tuple(point)), timeout
        )

    def submit_update(
        self,
        rid: int,
        old_point: Sequence[float],
        record: Record,
        timeout: float | None = None,
    ) -> "Future[object]":
        """Queue an update; a cross-shard move is a delete + insert chain.

        When the old and new points land on different shards there is no
        single owner to run the move, so the router deletes on the old
        owner and — once that acknowledgment arrives — inserts on the new
        one.  The combined future resolves to the replaced record (the
        single-service contract) only after both halves are applied.
        """
        self._assert_open()
        if OBS.enabled:
            OBS.count("cluster.routed_updates")
        old_shard = self.shard_of(old_point)
        new_shard = self.shard_of(record.point)
        if old_shard == new_shard:
            return self._shards[old_shard].submit(
                "update", (rid, tuple(old_point), record), timeout
            )
        if OBS.enabled:
            OBS.count("cluster.cross_shard_updates")
        combined: "Future[object]" = Future()
        delete_future = self._shards[old_shard].submit(
            "delete", (rid, tuple(old_point)), timeout
        )

        def _after_delete(done: "Future[object]") -> None:
            error = done.exception()
            if error is not None:
                combined.set_exception(error)
                return
            removed = done.result()
            try:
                insert_future = self._shards[new_shard].submit(
                    "insert_batch", ((record,),)
                )
            except BaseException as submit_error:
                combined.set_exception(submit_error)
                return
            insert_future.add_done_callback(
                lambda f: combined.set_exception(f.exception())  # type: ignore[arg-type]
                if f.exception() is not None
                else combined.set_result(removed)
            )

        delete_future.add_done_callback(_after_delete)
        return combined

    # -- synchronous conveniences (submit + result) --------------------------

    def insert(self, record: Record) -> None:
        self.submit_insert(record).result()

    def insert_batch(self, records: "Table | Iterable[Record]") -> int:
        return self.submit_insert_batch(records).result()  # type: ignore[return-value]

    def delete(self, rid: int, point: Sequence[float]) -> Record:
        return self.submit_delete(rid, point).result()  # type: ignore[return-value]

    def update(
        self, rid: int, old_point: Sequence[float], record: Record
    ) -> Record:
        return self.submit_update(rid, old_point, record).result()  # type: ignore[return-value]

    def barrier(self, timeout: float | None = None) -> int:
        """Wait until every previously acknowledged submit is applied.

        Shard conversations are strict request/reply, so a barrier is a
        scatter of per-shard barriers; returns the aggregated epoch.
        """
        self._assert_open()
        epochs = self._scatter("barrier", (), timeout=timeout)
        return self._fold_epochs(epochs)

    def load(self, source: "Table | Iterable[Record] | str | Path") -> int:
        """Bulk ingestion: route the records and wait for every shard.

        Accepts a table, a record stream, or a binary record-file path
        (read streaming, routed in batches).  Returns the total consumed.
        """
        self._assert_open()
        if isinstance(source, (str, Path)):
            from repro.dataset.io import RecordFileReader

            stream: Iterable[Record] = RecordFileReader(str(source)).iter_records(
                8_192
            )
            return self.submit_insert_batch(tuple(stream)).result()  # type: ignore[return-value]
        return self.submit_insert_batch(source).result()  # type: ignore[return-value]

    # -- read path -----------------------------------------------------------

    def release(
        self,
        k: int,
        *,
        compacted: bool = True,
        constraint: Constraint | None = None,
        strategy: str = "hilbert",
    ) -> ReleaseSnapshot:
        """Serve an immutable cluster-wide k-anonymous release snapshot.

        Scatter-gather: every shard ships its records in global
        ``(key, rid)`` order, the router stitches the runs across the
        shard seams, audits, and caches the snapshot under the
        aggregated cluster epoch.  Only the order-based ``"hilbert"``
        strategy exists cluster-wide (the leaf-aligned strategies are
        tree-shape-dependent and have no global tree to align to), and
        it carries the single-writer ``"hilbert"`` release's exact
        output — bit-identical digests, by construction.

        Raises :class:`ServiceClosedError` when any shard is down — a
        dead shard's records are unreachable and its epoch unreadable,
        so neither a fresh release nor a cached snapshot's validity can
        be established; serving one anyway could hand back a
        pre-acknowledged-write view.
        """
        self._assert_open()
        if strategy != "hilbert":
            raise ValueError(
                f"the cluster serves the order-based 'hilbert' strategy "
                f"only, not {strategy!r} (leaf-aligned strategies have no "
                "global tree to align to)"
            )
        if constraint is not None:
            raise ValueError(
                "the 'hilbert' strategy does not support per-partition "
                "constraints"
            )
        if not compacted:
            raise ValueError(
                "the 'hilbert' strategy publishes compacted MBRs only; "
                "use compacted=True"
            )
        if k < self._base_k:
            raise ValueError(
                f"requested granularity {k} is below the base k "
                f"{self._base_k} the cluster was built with"
            )
        key: CacheKey = (k, "hilbert", True, None)
        if self._config.cache_releases:
            snapshot = self._cache.get(key, self._live_epoch())
            if snapshot is not None:
                if OBS.enabled:
                    OBS.count("cluster.cache_hits")
                if TRACE.enabled:
                    TRACE.instant("cluster.cache_hit", "cluster", k=k)
                return snapshot
        with self._release_lock:
            epoch = self._live_epoch()
            if self._config.cache_releases:
                snapshot = self._cache.get(key, epoch)
                if snapshot is not None:  # another reader built it just now
                    if OBS.enabled:
                        OBS.count("cluster.cache_hits")
                    return snapshot
            if OBS.enabled:
                OBS.count("cluster.cache_misses")
            started = time.perf_counter()
            with TRACE.span(
                "cluster.release", "cluster", k=k, epoch=epoch
            ):
                runs, epoch = self._collect_runs()
                table, audit = assemble_release(
                    self._schema, runs, k, self._base_k
                )
            if OBS.enabled:
                OBS.observe(
                    "cluster.release_seconds", time.perf_counter() - started
                )
            snapshot = ReleaseSnapshot(
                table=table,
                audit=audit,
                digest=release_digest(table),
                k=k,
                strategy="hilbert",
                compacted=True,
                epoch=epoch,
            )
            if self._config.cache_releases:
                self._cache.put(key, snapshot)
            return snapshot

    def _live_epoch(self) -> int:
        """The cluster epoch, provable: raises when any shard is down.

        A dead shard's epoch is unreadable, so neither a fresh release
        nor a cached snapshot's validity can be established — serving one
        anyway could hand back a pre-acknowledged-write view.  The epoch
        probe itself is what *discovers* a freshly dead worker (its
        broken socket), so the check runs after the probe.
        """
        epoch = self.epoch
        dead = self.dead_shards
        if dead:
            raise ServiceClosedError(
                f"shard(s) {dead} are down; cluster releases are "
                "unavailable until the cluster is rebuilt"
            )
        return epoch

    def _collect_runs(self) -> tuple[list[ShardRun], int]:
        """Scatter ``collect``; gather (epoch, sorted run) per shard."""
        results = self._scatter("collect", ())
        runs: list[ShardRun] = []
        epochs: list[int] = []
        for handle, (epoch, records) in zip(self._shards, results):  # type: ignore[misc]
            handle.last_epoch = max(handle.last_epoch, int(epoch))
            epochs.append(int(epoch))
            runs.append(ShardRun(handle.index, list(records)))
        return runs, sum(epochs)

    # -- query path ----------------------------------------------------------

    def query(
        self,
        queries: "RangeQuery | Sequence[RangeQuery]",
        *,
        k: int,
        kind: str = "count",
    ) -> QueryResult:
        """Answer §5.4 queries at the router from the assembled release.

        :meth:`release` already holds the whole cluster-wide table, so the
        router scans its columns (:class:`~repro.query.engine.
        QueryEngine`, cached per k and validated by digest) and sends no
        query traffic to the shards beyond the release's own epoch probe
        and, on a cache miss, its ``collect``.  The result is
        bit-identical to :meth:`AnonymizerService.query
        <repro.serve.service.AnonymizerService.query>` over the same
        release — the cluster differential suite asserts it.

        The whole batch is answered against ONE snapshot, whose epoch and
        digest stamp the result.  A dead shard raises
        :class:`ServiceClosedError` (via :meth:`release`) rather than
        answering from a stale release; a query whose dimension count
        differs from the release's raises ``ValueError``.
        """
        self._assert_open()
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected {QUERY_KINDS}")
        batch = [queries] if isinstance(queries, RangeQuery) else list(queries)
        snapshot = self.release(k)
        with self._query_lock:
            cached = self._query_engines.get(k)
            if cached is None or cached[0] != snapshot.digest:
                cached = (snapshot.digest, QueryEngine(snapshot.table))
                self._query_engines[k] = cached
            elif OBS.enabled:
                OBS.count("query.engine_cache_hits")
        started = time.perf_counter()
        values = tuple(cached[1].evaluate(batch, kind))
        if OBS.enabled:
            OBS.count("cluster.queries")
            OBS.observe("cluster.query_seconds", time.perf_counter() - started)
        return QueryResult(
            kind=kind,
            values=values,
            k=k,
            epoch=snapshot.epoch,
            digest=snapshot.digest,
        )

    # -- observability -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The cluster epoch: the sum of the shards' epochs.

        Each shard's epoch counts its applied write groups, so the sum is
        bumped by every acknowledged cluster mutation — exactly the
        monotonic stamp the release cache needs.  A dead shard
        contributes its last observed epoch (the counter never
        regresses).
        """
        self._assert_open()
        futures: list[tuple[_ShardHandle, "Future[object] | None"]] = []
        for handle in self._shards:
            if handle.dead:
                futures.append((handle, None))
                continue
            try:
                futures.append((handle, handle.submit("epoch", ())))
            except ServiceClosedError:
                futures.append((handle, None))
        total = 0
        for handle, future in futures:
            if future is not None:
                try:
                    handle.last_epoch = max(
                        handle.last_epoch,
                        int(future.result(self._config.request_timeout)),  # type: ignore[arg-type]
                    )
                except ServiceClosedError:
                    pass
            total += handle.last_epoch
        if OBS.enabled:
            OBS.gauge("cluster.epoch", total)
        return total

    def health(self) -> dict[str, object]:
        """The aggregated health document served at ``/healthz``.

        The cluster's ``status`` is the worst shard verdict; a dead shard
        forces ``stalled`` (the cluster cannot release without it, and a
        503 from ``/healthz`` is the honest signal).  Per-shard documents
        ride along under ``"shards"``.
        """
        shard_healths: list[dict[str, object]] = []
        worst = "healthy"
        queue_depth = 0
        inflight = 0
        capacity = 0
        backpressure = 0.0
        heartbeat = 0.0
        cache_totals = {"hits": 0, "misses": 0, "invalidations": 0}
        for handle in self._shards:
            document = self._shard_health(handle)
            shard_healths.append(document)
            status = str(document.get("status", "stalled"))
            if _STATUS_RANK.get(status, 2) > _STATUS_RANK.get(worst, 0):
                worst = status
            queue_depth += int(document.get("queue_depth", 0))  # type: ignore[arg-type]
            inflight += int(document.get("inflight", 0))  # type: ignore[arg-type]
            capacity += int(document.get("queue_capacity", 0))  # type: ignore[arg-type]
            backpressure = max(
                backpressure, float(document.get("backpressure", 0.0))  # type: ignore[arg-type]
            )
            heartbeat = max(
                heartbeat, float(document.get("heartbeat_age_s", 0.0))  # type: ignore[arg-type]
            )
            cache = document.get("cache")
            if isinstance(cache, dict):
                for field in cache_totals:
                    cache_totals[field] += int(cache.get(field, 0))  # type: ignore[arg-type]
        stats = self._cache.stats
        requests = stats.hits + stats.misses
        dead = self.dead_shards
        if dead:
            worst = "stalled"
        if OBS.enabled:
            OBS.gauge("cluster.dead_shards", len(dead))
        return {
            "status": worst if not self._closed else "stalled",
            "epoch": self.epoch if not self._closed else 0,
            "shard_count": len(self._shards),
            "dead_shards": dead,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "queue_capacity": capacity,
            "backpressure": backpressure,
            "heartbeat_age_s": heartbeat,
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "invalidations": stats.invalidations,
                "hit_ratio": stats.hits / requests if requests else 0.0,
                "entries": len(self._cache),
                "shard_hits": cache_totals["hits"],
                "shard_misses": cache_totals["misses"],
            },
            "shards": shard_healths,
            "closed": self._closed,
        }

    def _shard_health(self, handle: _ShardHandle) -> dict[str, object]:
        if handle.dead or self._closed:
            return {
                "shard": handle.index,
                "status": "stalled",
                "dead": True,
                "reason": handle.dead_reason,
                "epoch": handle.last_epoch,
            }
        try:
            document = dict(
                handle.submit("health", ()).result(self._config.request_timeout)  # type: ignore[arg-type]
            )
        except ServiceClosedError:
            return {
                "shard": handle.index,
                "status": "stalled",
                "dead": True,
                "reason": handle.dead_reason,
                "epoch": handle.last_epoch,
            }
        document["shard"] = handle.index
        document["dead"] = False
        return document

    def metrics_text(self) -> str:
        """One ``/metrics`` exposition: router metrics + shard-labeled rollup.

        The router's own registry snapshot (the ``cluster.*`` family)
        exports unlabeled; every live shard's snapshot exports with a
        ``shard="i"`` label, so the single-service ``serve.*`` counters
        stay comparable shard by shard on one scrape.
        """
        shard_parts: list[tuple[dict[str, str], dict[str, object]]] = []
        for handle in self._shards:
            if handle.dead:
                continue
            try:
                snapshot, health, epoch = handle.submit("metrics", ()).result(  # type: ignore[misc]
                    self._config.request_timeout
                )
            except ServiceClosedError:
                continue
            handle.last_epoch = max(handle.last_epoch, int(epoch))
            labels = {"shard": str(handle.index)}
            merged: dict[str, object] = dict(snapshot or {})
            gauges = dict(merged.get("gauges") or {})  # type: ignore[arg-type]
            gauges["serve.epoch"] = float(epoch)
            gauges["serve.health"] = float(
                HEALTH_CODES.get(str(health.get("status")), 2)
            )
            merged["gauges"] = gauges
            shard_parts.append((labels, merged))
        health = self.health()
        cache: dict[str, object] = health["cache"]  # type: ignore[assignment]
        extra = {
            "cluster.epoch": float(health["epoch"]),  # type: ignore[arg-type]
            "cluster.shards": float(len(self._shards)),
            "cluster.dead_shards": float(len(self.dead_shards)),
            "cluster.backpressure": float(health["backpressure"]),  # type: ignore[arg-type]
            "cluster.cache_hit_ratio": float(cache["hit_ratio"]),  # type: ignore[arg-type]
            "cluster.health": float(HEALTH_CODES[health["status"]]),  # type: ignore[index]
        }
        return prometheus_cluster_text(OBS.snapshot(), shard_parts, extra)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every shard, join the workers, stop telemetry.  Idempotent.

        Writes acknowledged before ``close`` are applied (each worker
        drains its service before exiting); submissions after it raise
        :class:`ServiceClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._telemetry_server is not None:
            self._telemetry_server.stop()
        futures: list[tuple[_ShardHandle, "Future[object] | None"]] = []
        for handle in self._shards:
            if handle.dead:
                futures.append((handle, None))
                continue
            try:
                futures.append((handle, handle.submit("close", ())))
            except ServiceClosedError:
                futures.append((handle, None))
        for handle, future in futures:
            if future is not None:
                try:
                    future.result(self._config.request_timeout)
                except (ServiceClosedError, TimeoutError):
                    pass
            handle.stop_dispatcher()
            handle.dispatcher.join(self._config.request_timeout)
            handle.process.join(self._config.request_timeout)
            if handle.process.is_alive():  # pragma: no cover - wedged worker
                handle.process.terminate()
                handle.process.join(5.0)
            try:
                handle.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _assert_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("this cluster has been closed")

    def _scatter(
        self, op: str, args: tuple, timeout: float | None = None
    ) -> list[object]:
        """Send ``op`` to every shard; gather the replies in shard order.

        Raises :class:`ServiceClosedError` when any shard is dead — the
        scatter ops (collect, barrier, journal, len) are exactly the ones
        that need *all* shards to mean anything.
        """
        self._assert_open()
        futures = [handle.submit(op, args, timeout) for handle in self._shards]
        deadline = self._config.request_timeout
        return [future.result(deadline) for future in futures]

    def _fold_epochs(self, epochs: Sequence[object]) -> int:
        total = 0
        for handle, epoch in zip(self._shards, epochs):
            handle.last_epoch = max(handle.last_epoch, int(epoch))  # type: ignore[arg-type]
            total += handle.last_epoch
        return total


def _combine(
    futures: Sequence["Future[object]"],
    fold: Callable[[list[object]], object],
) -> "Future[object]":
    """One future resolving to ``fold(results)`` once every input resolves.

    The first exception wins (the rest are still awaited so late errors
    are not silently dropped — they just cannot un-fail the future).
    """
    combined: "Future[object]" = Future()
    results: list[object] = [None] * len(futures)
    remaining = [len(futures)]
    lock = threading.Lock()

    def _on_done(index: int, done: "Future[object]") -> None:
        error = done.exception()
        if error is not None:
            # set_exception on an already-failed future raises; guard it.
            with lock:
                already = combined.done()
            if not already:
                try:
                    combined.set_exception(error)
                except Exception:
                    pass
            return
        results[index] = done.result()
        with lock:
            remaining[0] -= 1
            finished = remaining[0] == 0
        if finished and not combined.done():
            try:
                combined.set_result(fold(results))
            except Exception:
                pass

    for index, future in enumerate(futures):
        future.add_done_callback(
            lambda done, index=index: _on_done(index, done)
        )
    return combined
