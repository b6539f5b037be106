"""The thread-safe anonymizer service: one writer, many readers.

:class:`AnonymizerService` turns an :class:`~repro.core.anonymizer.
RTreeAnonymizer` into something shaped like a database serving layer:

* all tree mutation happens on **one writer thread**, under one lock,
  fed by the bounded :class:`~repro.serve.queue.WriteQueue` (submitting
  callers get a :class:`~concurrent.futures.Future` and, when the queue
  is full, backpressure);
* consecutive single-record inserts are coalesced into one
  ``insert_batch`` group — one buffered-loader pass over the tree and,
  when durability is on, one WAL batch with a single group-commit fsync;
* readers never touch the live tree: :meth:`release` returns an immutable
  :class:`~repro.serve.cache.ReleaseSnapshot`, computed under the write
  lock on a miss and served from the epoch-validated cache on a hit;
* every applied write group bumps the **epoch**, so cached releases go
  stale the moment their data changes and a reader can never be handed a
  pre-mutation release after the mutation was acknowledged.

Observability: ``serve.cache_hits`` / ``serve.cache_misses`` /
``serve.cache_invalidations`` / ``serve.epoch_bumps`` /
``serve.write_groups`` / ``serve.queued_writes`` counters, the
``serve.queue_wait_seconds`` / ``serve.group_size`` /
``serve.commit_seconds`` / ``serve.release_seconds`` /
``serve.snapshot_swap_seconds`` histograms (p50/p90/p99 via the
registry's quantile sketch), and ``serve.queue_wait`` / ``serve.commit``
/ ``serve.release`` / ``serve.snapshot_swap`` trace spans.

Live telemetry (opt-in via :class:`~repro.obs.live.TelemetryConfig` on
the :class:`ServiceConfig`): a ``/metrics`` + ``/healthz`` HTTP endpoint,
a writer-heartbeat watchdog feeding :meth:`AnonymizerService.health`, and
a sampled slow-op JSONL log — see :mod:`repro.obs.live` and ``repro top``.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.leafscan import Constraint
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.obs import AUDITOR, OBS, TRACE
from repro.obs.audit import audit_release
from repro.obs.live import (
    HEALTH_CODES,
    SlowOpLog,
    TelemetryConfig,
    TelemetryServer,
    WriterWatchdog,
    prometheus_text,
)
from repro.query.engine import QUERY_KINDS, QueryEngine, QueryResult
from repro.query.ranges import RangeQuery
from repro.serve.cache import CacheKey, ReleaseCache, ReleaseSnapshot
from repro.serve.queue import INSERT_KINDS, WriteOp, WriteQueue

#: Query engines cached per release recipe; oldest-built evicted beyond
#: this (an engine is cheap to rebuild — one pass building the columns).
MAX_QUERY_ENGINES = 8


class ServiceClosedError(RuntimeError):
    """Raised when submitting to or reading from a closed service."""


@dataclass(frozen=True, kw_only=True)
class ServiceConfig:
    """Tuning knobs for an :class:`AnonymizerService` (keyword-only).

    ``max_queue`` bounds the write queue (submitters block when full —
    that bound *is* the backpressure).  ``max_batch`` caps how many
    queued insert operations one group commit coalesces.
    ``cache_releases`` switches the release cache (off = every read
    recomputes under the lock).  ``journal`` keeps an in-memory log of
    every applied write group — the differential stress suite replays it
    to prove snapshot isolation — and costs memory proportional to the
    write history, so leave it off in production use.  ``telemetry``
    opts into the live layer (:mod:`repro.obs.live`): the ``/metrics`` +
    ``/healthz`` endpoint, the writer watchdog thresholds, and the
    slow-op log.  ``cache_max_entries`` bounds how many release recipes
    the cache may hold at once (stale epochs are swept on every put
    regardless; ``None`` removes the bound).
    """

    max_queue: int = 1024
    max_batch: int = 256
    cache_releases: bool = True
    cache_max_entries: int | None = 64
    journal: bool = False
    telemetry: TelemetryConfig | None = None


class AnonymizerService:
    """Serve k-anonymous releases concurrently with incremental writes."""

    def __init__(
        self,
        engine: RTreeAnonymizer,
        config: ServiceConfig | None = None,
    ) -> None:
        self._engine = engine
        self._config = config if config is not None else ServiceConfig()
        self._write_lock = threading.RLock()
        self._cache = ReleaseCache(max_entries=self._config.cache_max_entries)
        self._query_engines: dict[CacheKey, tuple[str, QueryEngine]] = {}
        self._query_lock = threading.Lock()
        self._epoch = 0
        self._queue = WriteQueue(self._config.max_queue)
        self._journal: list[tuple] | None = [] if self._config.journal else None
        self._closed = False
        telemetry = self._config.telemetry
        self._watchdog = WriterWatchdog(
            telemetry.degraded_after if telemetry else 1.0,
            telemetry.stalled_after if telemetry else 5.0,
        )
        #: Ops taken off the queue but not yet applied (writer-side only).
        self._inflight = 0
        self._slow_ops: SlowOpLog | None = None
        self._slow_op_warned = False
        self._telemetry_server: TelemetryServer | None = None
        if telemetry is not None and telemetry.slow_op_log is not None:
            self._slow_ops = SlowOpLog(
                telemetry.slow_op_log,
                telemetry.slow_op_threshold,
                sample_every=telemetry.slow_op_sample,
                max_spans=telemetry.slow_op_spans,
            )
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()
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
    def engine(self) -> RTreeAnonymizer:
        """The wrapped engine.  Do not mutate it directly while serving."""
        return self._engine

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def epoch(self) -> int:
        """Bumped once per applied write group; cache entries key on it."""
        return self._epoch

    @property
    def cache(self) -> ReleaseCache:
        return self._cache

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def journal(self) -> tuple[tuple, ...]:
        """The applied write groups, in order (``journal=True`` only).

        Entry ``i`` is the group whose application moved the service from
        epoch ``i`` to ``i + 1``; replaying ``journal[:e]`` onto an
        identically-prepared engine reproduces epoch ``e`` exactly — the
        property the stress suite's differential check relies on.
        """
        if self._journal is None:
            raise ValueError("journaling is off; construct with journal=True")
        return tuple(self._journal)

    def queue_depth(self) -> int:
        return self._queue.depth()

    def __len__(self) -> int:
        return len(self._engine)

    # -- live telemetry ------------------------------------------------------

    @property
    def telemetry_address(self) -> tuple[str, int] | None:
        """The bound (host, port) of the ``/metrics`` endpoint, if started."""
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.address

    @property
    def telemetry_url(self) -> str | None:
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.url

    @property
    def slow_op_log(self) -> SlowOpLog | None:
        return self._slow_ops

    def health(self) -> dict[str, object]:
        """The live health document served at ``/healthz``.

        ``status`` is the watchdog verdict over the pending work (queued
        plus in-flight operations): an idle writer is ``healthy`` no
        matter how long it has slept; a writer that stops beating while
        work waits degrades, then stalls.
        """
        depth = self._queue.depth()
        pending = depth + self._inflight
        status = self._watchdog.assess(pending)
        stats = self._cache.stats
        requests = stats.hits + stats.misses
        return {
            "status": status,
            "epoch": self._epoch,
            "queue_depth": depth,
            "inflight": self._inflight,
            "queue_capacity": self._queue.maxsize,
            "backpressure": depth / self._queue.maxsize,
            "heartbeat_age_s": self._watchdog.age(),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "invalidations": stats.invalidations,
                "hit_ratio": stats.hits / requests if requests else 0.0,
                "entries": len(self._cache),
            },
            "closed": self._closed,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition served at ``/metrics``.

        Registry counters/gauges/histograms (with p50/p90/p99 summary
        quantiles) plus the service-level live gauges: epoch, queue
        depth, backpressure, cache hit ratio and the numeric health code
        (0 healthy, 1 degraded, 2 stalled).
        """
        health = self.health()
        cache: dict[str, object] = health["cache"]  # type: ignore[assignment]
        extra = {
            "serve.epoch": float(self._epoch),
            "serve.queue_depth": float(health["queue_depth"]),  # type: ignore[arg-type]
            "serve.backpressure": float(health["backpressure"]),  # type: ignore[arg-type]
            "serve.inflight": float(health["inflight"]),  # type: ignore[arg-type]
            "serve.cache_hit_ratio": float(cache["hit_ratio"]),  # type: ignore[arg-type]
            "serve.heartbeat_age_seconds": float(health["heartbeat_age_s"]),  # type: ignore[arg-type]
            "serve.health": float(HEALTH_CODES[health["status"]]),  # type: ignore[index]
        }
        return prometheus_text(OBS.snapshot(), extra)

    # -- bulk ingestion (pre-serving; takes the write lock directly) ---------

    def load(
        self,
        source: "Table | Iterable[Record] | str | Path",
        *,
        workers: int | None = None,
        batch_size: int = 8_192,
        first_rid: int = 0,
    ) -> int:
        """Bulk-load under the write lock (one epoch bump for the lot).

        The natural call order is load first, serve after — but the lock
        makes a mid-serving load safe too: readers just block for its
        duration.
        """
        self._assert_open()
        with self._write_lock:
            if isinstance(source, (str, Path)):
                consumed = self._engine.bulk_load_file(
                    str(source),
                    batch_size=batch_size,
                    first_rid=first_rid,
                    workers=workers,
                )
                self._journal_append(
                    ("bulk_load_file", str(source), batch_size, first_rid, workers)
                )
            else:
                if self._journal is not None:
                    # Journaled mode materializes so the replay sees the
                    # same records (journal=True is a test facility).
                    stream = (
                        source.records
                        if isinstance(source, Table)
                        else tuple(source)
                    )
                    consumed = self._engine.bulk_load(stream)
                    self._journal_append(("bulk_load", tuple(stream)))
                else:
                    consumed = self._engine.bulk_load(source)
            self._bump_epoch()
        return consumed

    # -- write path ----------------------------------------------------------

    def submit_insert(
        self, record: Record, timeout: float | None = None
    ) -> "Future[object]":
        """Queue one insert; the future resolves once it is applied+logged."""
        return self._submit(WriteOp("insert", (record,)), timeout)

    def submit_insert_batch(
        self, records: "Table | Iterable[Record]", timeout: float | None = None
    ) -> "Future[object]":
        stream = records.records if isinstance(records, Table) else records
        return self._submit(
            WriteOp("insert_batch", (tuple(stream),)), timeout
        )

    def submit_delete(
        self, rid: int, point: Sequence[float], timeout: float | None = None
    ) -> "Future[object]":
        return self._submit(WriteOp("delete", (rid, tuple(point))), timeout)

    def submit_update(
        self,
        rid: int,
        old_point: Sequence[float],
        record: Record,
        timeout: float | None = None,
    ) -> "Future[object]":
        return self._submit(
            WriteOp("update", (rid, tuple(old_point), record)), timeout
        )

    def insert(self, record: Record) -> None:
        """Insert and wait for the acknowledgement (submit + result)."""
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
        """Wait until every previously submitted write is applied.

        Returns the epoch observed once the barrier drained.
        """
        op = WriteOp("barrier", ())
        self._submit_op(op)
        return op.future.result(timeout)  # type: ignore[return-value]

    def _submit(self, op: WriteOp, timeout: float | None) -> "Future[object]":
        self._submit_op(op, timeout)
        return op.future

    def _submit_op(self, op: WriteOp, timeout: float | None = None) -> None:
        self._assert_open()
        self._queue.put(op, timeout=timeout)
        if OBS.enabled:
            depth = self._queue.depth()
            OBS.count("serve.queued_writes")
            OBS.gauge("serve.queue_depth", depth)
            OBS.gauge("serve.backpressure", depth / self._queue.maxsize)

    # -- read path -----------------------------------------------------------

    def release(
        self,
        k: int,
        *,
        compacted: bool = True,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> ReleaseSnapshot:
        """Serve an immutable k-anonymous release snapshot.

        A cache hit never touches the tree.  A miss recomputes under the
        write lock (writers wait; other readers of the same key piggyback
        on the recheck) and atomically swaps the fresh snapshot in.  The
        snapshot reflects exactly the epoch it is stamped with — never a
        tree mid-mutation.
        """
        self._assert_open()
        key: CacheKey = (k, strategy, compacted, constraint)
        if self._config.cache_releases:
            snapshot = self._cache.get(key, self._epoch)
            if snapshot is not None:
                if OBS.enabled:
                    OBS.count("serve.cache_hits")
                if TRACE.enabled:
                    TRACE.instant("serve.cache_hit", "serve", k=k)
                return snapshot
        with self._write_lock:
            epoch = self._epoch
            if self._config.cache_releases:
                snapshot = self._cache.get(key, epoch)
                if snapshot is not None:  # another reader built it just now
                    if OBS.enabled:
                        OBS.count("serve.cache_hits")
                    return snapshot
            if OBS.enabled:
                OBS.count("serve.cache_misses")
            release_started = time.perf_counter()
            with TRACE.span(
                "serve.release", "serve", k=k, strategy=strategy, epoch=epoch
            ):
                table = self._engine.anonymize(
                    k, compacted=compacted, constraint=constraint,
                    strategy=strategy,
                )
            release_elapsed = time.perf_counter() - release_started
            if OBS.enabled:
                OBS.observe("serve.release_seconds", release_elapsed)
            self._note_slow(
                "release", release_elapsed, k=k, strategy=strategy,
                epoch=epoch,
            )
            if AUDITOR.enabled and AUDITOR.latest is not None:
                audit = AUDITOR.latest
            else:
                audit = audit_release(table, k, base_k=self._engine.base_k)
            snapshot = ReleaseSnapshot(
                table=table,
                audit=audit,
                digest=release_digest(table),
                k=k,
                strategy=strategy,
                compacted=compacted,
                epoch=epoch,
            )
            if self._config.cache_releases:
                swap_started = time.perf_counter()
                with TRACE.span("serve.snapshot_swap", "serve", k=k):
                    self._cache.put(key, snapshot)
                if OBS.enabled:
                    OBS.observe(
                        "serve.snapshot_swap_seconds",
                        time.perf_counter() - swap_started,
                    )
            return snapshot

    # -- query path ----------------------------------------------------------

    def query(
        self,
        queries: "RangeQuery | Sequence[RangeQuery]",
        *,
        k: int,
        kind: str = "count",
        compacted: bool = True,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> QueryResult:
        """Answer §5.4 queries against the k-release with a columnar scan.

        ``kind`` is ``"count"`` (records of intersecting partitions) or
        ``"distinct"`` (number of intersecting equivalence classes); point
        lookups and group-by aggregates reduce to these via
        :func:`repro.query.point_query` / :func:`repro.query.group_by_queries`.
        The whole batch is answered against ONE snapshot — the result is
        stamped with that snapshot's epoch and digest, so a caller can
        check which release state the answers reflect even while a writer
        is live.  Answers are bit-identical to running the scalar oracle
        :func:`repro.query.count_anonymized` over the same snapshot.
        Raises ``ValueError`` for a query whose dimension count differs
        from the release's.
        """
        self._assert_open()
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected {QUERY_KINDS}")
        batch = [queries] if isinstance(queries, RangeQuery) else list(queries)
        snapshot = self.release(
            k, compacted=compacted, constraint=constraint, strategy=strategy
        )
        engine = self._query_engine(
            (k, strategy, compacted, constraint), snapshot
        )
        started = time.perf_counter()
        values = engine.evaluate(batch, kind)
        if OBS.enabled:
            OBS.count("serve.queries")
            OBS.observe("serve.query_seconds", time.perf_counter() - started)
        return QueryResult(
            kind=kind,
            values=tuple(values),
            k=k,
            epoch=snapshot.epoch,
            digest=snapshot.digest,
        )

    def _query_engine(
        self, key: CacheKey, snapshot: ReleaseSnapshot
    ) -> QueryEngine:
        """The cached query engine for one release recipe.

        Keyed by recipe, validated by digest: a digest match means the
        snapshot's table is bit-identical to the one the engine was built
        over, so reuse is safe across epochs whose writes did not change
        this release.  The engine is immutable, so handing one engine to
        many reader threads is fine.
        """
        with self._query_lock:
            cached = self._query_engines.get(key)
            if cached is not None and cached[0] == snapshot.digest:
                if OBS.enabled:
                    OBS.count("query.engine_cache_hits")
                return cached[1]
        engine = QueryEngine(snapshot.table)
        with self._query_lock:
            self._query_engines[key] = (snapshot.digest, engine)
            while len(self._query_engines) > MAX_QUERY_ENGINES:
                del self._query_engines[next(iter(self._query_engines))]
        return engine

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain the queue, stop the writer, close the engine.  Idempotent.

        Writes submitted before ``close`` are still applied (their futures
        resolve); submissions after it raise :class:`ServiceClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put_stop()
        self._writer.join()
        if self._telemetry_server is not None:
            self._telemetry_server.stop()
        if self._slow_ops is not None:
            self._slow_ops.close()
        self._engine.close()

    def __enter__(self) -> "AnonymizerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _assert_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("this service has been closed")

    # -- the writer thread ---------------------------------------------------

    def _writer_loop(self) -> None:
        self._watchdog.beat()
        while True:
            group = self._queue.take_group(self._config.max_batch)
            self._watchdog.beat()
            if group is None:
                return
            self._inflight = len(group)
            try:
                self._apply_group(list(group))
            finally:
                self._inflight = 0
                self._watchdog.beat()

    def _apply_group(self, group: list[WriteOp]) -> None:
        started = time.perf_counter()
        for op in group:
            waited = started - op.enqueued_at
            if OBS.enabled:
                OBS.observe("serve.queue_wait_seconds", waited)
            if TRACE.enabled:
                TRACE.record_span(
                    "serve.queue_wait",
                    "serve",
                    start_us=TRACE.offset_us(op.enqueued_at),
                    duration_us=waited * 1e6,
                    args={"kind": op.kind},
                )
        first = group[0]
        if first.kind == "barrier":
            first.future.set_result(self._epoch)
            return
        error: BaseException | None = None
        result: object = None
        commit_started = time.perf_counter()
        with self._write_lock:
            with TRACE.span("serve.commit", "serve", ops=len(group)):
                try:
                    result = self._apply_locked(group)
                except BaseException as exc:  # resolve futures either way
                    error = exc
                    # State may have partially changed (a batch that died
                    # midway); go stale rather than serve it cached.  The
                    # journal marks the failed group so entry i keeps
                    # corresponding to the epoch-i -> i+1 transition.
                    self._journal_append(("failed", first.kind))
                    self._bump_epoch()
                else:
                    self._bump_epoch()
        commit_elapsed = time.perf_counter() - commit_started
        # Acknowledge the writers first: telemetry below must never delay
        # (or, should it fail, strand) a client blocked on its future.
        for op in group:
            if error is not None:
                op.future.set_exception(error)
            else:
                op.future.set_result(result)
        if OBS.enabled:
            OBS.count("serve.write_groups")
            OBS.observe("serve.group_size", len(group))
            OBS.observe("serve.commit_seconds", commit_elapsed)
        self._note_slow(
            "commit", commit_elapsed, kind=first.kind, ops=len(group),
            epoch=self._epoch,
        )

    def _apply_locked(self, group: list[WriteOp]) -> object:
        first = group[0]
        if first.kind in INSERT_KINDS:
            records: list[Record] = []
            for op in group:
                if op.kind == "insert":
                    records.append(op.payload[0])
                else:
                    records.extend(op.payload[0])
            consumed = self._engine.insert_batch(records)
            self._journal_append(("insert_batch", tuple(records)))
            return consumed
        if first.kind == "delete":
            rid, point = first.payload
            removed = self._engine.delete(rid, point)
            self._journal_append(("delete", rid, point))
            return removed
        if first.kind == "update":
            rid, old_point, record = first.payload
            replaced = self._engine.update(rid, old_point, record)
            self._journal_append(("update", rid, old_point, record))
            return replaced
        raise AssertionError(f"unknown write kind {first.kind!r}")

    def _journal_append(self, entry: tuple) -> None:
        if self._journal is not None:
            self._journal.append(entry)

    def _note_slow(self, op: str, seconds: float, **context: object) -> None:
        """Feed the slow-op log, never letting telemetry hurt the data path.

        A full disk or closed sink under the log must not kill the writer
        thread or fail a reader's release — warn once and keep serving.
        """
        if self._slow_ops is None:
            return
        try:
            self._slow_ops.record(op, seconds, **context)
        except Exception as error:
            if not self._slow_op_warned:
                self._slow_op_warned = True
                print(
                    f"warning: slow-op log failed ({error!r}); "
                    "further slow operations will not be recorded",
                    file=sys.stderr,
                )

    def _bump_epoch(self) -> None:
        self._epoch += 1
        if OBS.enabled:
            OBS.count("serve.epoch_bumps")
            OBS.gauge("serve.epoch", self._epoch)
