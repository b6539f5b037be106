"""The thread-safe anonymizer service: one writer, many readers.

:class:`AnonymizerService` turns an :class:`~repro.core.anonymizer.
RTreeAnonymizer` into something shaped like a database serving layer:

* all tree mutation happens on **one writer thread**, under one lock, fed
  by the bounded :class:`~repro.serve.queue.WriteQueue` (callers get a
  :class:`~concurrent.futures.Future`, and backpressure when it is full);
  any run of consecutive writes coalesces into one write group, applied
  by :meth:`RTreeAnonymizer.write` — each run of inserts as one buffered
  loader pass and, with durability on, the whole group under one WAL
  commit and one fsync; each future resolves to its own op's result;
* every applied write group bumps the **epoch**, so a reader is never
  handed a pre-mutation release after the mutation was acknowledged;
* readers never touch the live tree: :meth:`release` serves immutable,
  epoch-stamped releases from the one :class:`~repro.serve.cache.
  ReleaseCache` (computed under the write lock on a miss), and
  :meth:`query` answers from the engine the cached release carries.

Observability: ``serve.cache_hits`` / ``serve.cache_misses`` /
``serve.cache_invalidations`` / ``serve.epoch_bumps`` /
``serve.write_groups`` / ``serve.queued_writes`` counters, the
``serve.group_size`` histogram, and the ``serve.queue_wait`` /
``serve.commit`` / ``serve.release`` / ``serve.snapshot_swap`` spans —
each feeds its ``<name>_seconds`` histogram (p50/p90/p99 via the
registry's quantile sketch) and the trace.

Live telemetry (opt-in via :class:`~repro.obs.live.TelemetryConfig` on
the :class:`ServiceConfig`): a ``/metrics`` + ``/healthz`` HTTP endpoint,
a writer-heartbeat watchdog feeding :meth:`AnonymizerService.health`, and
a sampled slow-op JSONL log — see :mod:`repro.obs.live` and ``repro top``.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.leafscan import Constraint
from repro.core.partition import Release
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability.manager import CheckpointResult
from repro.obs import OBS, TRACE, span
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
from repro.serve.cache import CacheKey, ReleaseCache
from repro.serve.queue import WriteOp, WriteQueue

# Unused here: perfbench's traced pass wraps these two names on this module
# by attribute.  ROADMAP item 1 (perfbench reads the repo's own spans)
# removes them.
from repro.core.partition import release_digest  # noqa: F401
from repro.obs.audit import audit_release  # noqa: F401


class ServiceClosedError(RuntimeError):
    """Raised when submitting to or reading from a closed service."""


@dataclass(frozen=True, kw_only=True)
class ServiceConfig:
    """Tuning knobs for an :class:`AnonymizerService` (keyword-only).

    ``max_queue`` bounds the write queue (submitters block when full —
    that bound *is* the backpressure).  ``max_batch`` caps how many
    queued writes of any kind one group commit coalesces.  ``journal``
    keeps an in-memory log of every applied write group — the
    differential stress suite replays it to prove snapshot isolation —
    and costs memory proportional to the write history, so leave it off
    in production use.  ``telemetry`` opts into the live layer
    (:mod:`repro.obs.live`): the ``/metrics`` + ``/healthz`` endpoint,
    the writer watchdog thresholds, and the slow-op log.  Bounds below 1
    raise ``ValueError`` at construction.
    """

    max_queue: int = 1024
    max_batch: int = 256
    journal: bool = False
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")


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
        self._cache = ReleaseCache()
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
        if telemetry is not None and telemetry.endpoint:
            # Bound before the writer starts: a port that cannot be bound
            # must not strand a writer thread pinning the engine and its WAL.
            try:
                self._telemetry_server = TelemetryServer(
                    self.metrics_text,
                    self.health,
                    host=telemetry.host,
                    port=telemetry.port,
                )
            except BaseException:
                if self._slow_ops is not None:
                    self._slow_ops.close()
                raise
            self._telemetry_server.start()
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()

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
        epoch ``i`` to ``i + 1``: the ops tuple the engine's ``write``
        applied (a load from memory is one ``insert_batch`` op),
        ``("bulk_load_file", path, first_rid, workers)``, or ``("failed",
        kind)``.  Replaying ``journal[:e]`` onto an identically-prepared
        engine (``write`` per ops tuple; a refused op refuses again)
        reproduces epoch ``e`` exactly — the property the stress suite's
        differential check relies on.
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
        first_rid: int = 0,
    ) -> int:
        """Bulk-load under the write lock (one epoch bump for the lot).

        The natural call order is load first, serve after — but the lock
        makes a mid-serving load safe too: readers just block for its
        duration.  The epoch moves on even if the source raises, since
        the records read before it are applied.
        """
        self._assert_open()
        is_file = isinstance(source, (str, Path))
        with self._write_lock:
            entry: tuple = ("failed", "load")
            try:
                if self._journal is not None and not is_file:
                    # Journaled mode materializes so the replay sees the
                    # same records (journal=True is a test facility).
                    source = tuple(source)  # type: ignore[arg-type]
                consumed = self._engine.load(
                    source, workers=workers, first_rid=first_rid
                )
                if is_file:
                    entry = ("bulk_load_file", str(source), first_rid, workers)
                else:
                    entry = (("insert_batch", source),)
            finally:
                self._journal_append(entry)
                self._bump_epoch()
        return consumed

    # -- write path ----------------------------------------------------------

    def submit_insert(
        self, record: Record, timeout: float | None = None
    ) -> "Future[object]":
        """Queue one insert; the future resolves to ``None`` once it is
        applied and logged (a batch's to its count, a delete's or update's
        to the removed record)."""
        return self._submit(WriteOp("insert", (record,)), timeout)

    def submit_insert_batch(
        self, records: "Table | Iterable[Record]", timeout: float | None = None
    ) -> "Future[object]":
        return self._submit(WriteOp("insert_batch", (tuple(records),)), timeout)

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
        future = self._submit(WriteOp("barrier", ()), None)
        return future.result(timeout)  # type: ignore[return-value]

    def _submit(self, op: WriteOp, timeout: float | None) -> "Future[object]":
        self._assert_open()
        self._queue.put(op, timeout=timeout)
        if OBS.enabled:
            depth = self._queue.depth()
            OBS.count("serve.queued_writes")
            OBS.gauge("serve.queue_depth", depth)
            OBS.gauge("serve.backpressure", depth / self._queue.maxsize)
        return op.future

    # -- read path -----------------------------------------------------------

    def release(
        self,
        k: int,
        *,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> Release:
        """Serve an immutable k-anonymous release, stamped with its epoch.

        A cache hit never touches the tree.  A miss publishes through
        :meth:`RTreeAnonymizer.release` under the write lock (writers
        wait; other readers of the same key piggyback on the recheck) and
        atomically swaps the fresh release in.  Each served call counts
        exactly one cache hit or miss: a hit on the lock-free lookup, a
        miss once the release is published or picked up from a racing
        reader.  A recipe the engine refuses (an unknown strategy, a ``k``
        below the base k or above the record count) raises ``ValueError``
        and counts neither.  The release reflects exactly the epoch it is
        stamped with — never a tree mid-mutation.
        """
        self._assert_open()
        self._engine.check_recipe(k, strategy)
        key: CacheKey = (k, strategy, True, constraint)
        release = self._cache.lookup(key, self._epoch)
        if release is not None:
            if OBS.enabled:
                OBS.count("serve.cache_hits")
            if TRACE.enabled:
                TRACE.instant("serve.cache_hit", k=k)
            return release
        with self._write_lock:
            epoch = self._epoch
            release = self._cache.peek(key, epoch)
            if release is None:  # else another reader built it just now
                with span(
                    "serve.release", k=k, strategy=strategy, epoch=epoch
                ) as timed:
                    release = self._engine.release(
                        k, constraint=constraint, strategy=strategy
                    )
                self._note_slow(
                    "release", timed.seconds, k=k, strategy=strategy, epoch=epoch
                )
                release = replace(release, epoch=epoch)
                with span("serve.snapshot_swap", k=k):
                    self._cache.put(key, release)
        self._cache.count_miss()
        if OBS.enabled:
            OBS.count("serve.cache_misses")
        return release

    # -- query path ----------------------------------------------------------

    def query(
        self,
        queries: "RangeQuery | Sequence[RangeQuery]",
        *,
        k: int,
        kind: str = "count",
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> QueryResult:
        """Answer §5.4 queries against the k-release with a columnar scan.

        ``kind`` is ``"count"`` (records of intersecting partitions) or
        ``"distinct"`` (number of intersecting equivalence classes); point
        lookups and group-by aggregates reduce to these via
        :func:`repro.query.point_query` / :func:`repro.query.group_by_queries`.
        The whole batch is answered against ONE release — the result is
        stamped with that release's epoch and digest, so a caller can
        check which release state the answers reflect even while a writer
        is live.  Answers are bit-identical to running the scalar oracle
        :func:`repro.query.count_anonymized` over the same release.
        Raises ``ValueError`` for a query whose dimension count differs
        from the release's.
        """
        self._assert_open()
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected {QUERY_KINDS}")
        batch = [queries] if isinstance(queries, RangeQuery) else list(queries)
        release = self.release(k, constraint=constraint, strategy=strategy)
        # The cached release carries its engine; the first query of a
        # release builds it, outside every lock.
        engine = self._cache.query_engine(
            (k, strategy, True, constraint), release, QueryEngine
        )
        values = engine.evaluate(batch, kind)
        if OBS.enabled:
            OBS.count("serve.queries")
        return QueryResult(
            kind=kind,
            values=tuple(values),
            k=k,
            epoch=release.epoch,
            digest=release.digest,
        )

    # -- lifecycle -----------------------------------------------------------

    def checkpoint(self) -> CheckpointResult:
        """Snapshot durable state and truncate the WAL, between write groups.

        Takes the write lock, so the checkpoint never races a group the
        writer thread is applying; writes still queued land after it.  See
        :meth:`RTreeAnonymizer.checkpoint`.
        """
        self._assert_open()
        with self._write_lock:
            return self._engine.checkpoint()

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
        first = group[0]
        if first.kind == "barrier":
            first.future.set_result(self._epoch)
            return
        ops, slots = _write_ops(group)
        # The commit span starts before the write lock is taken, so its
        # histogram includes the wait behind a release in progress.
        with span("serve.commit", ops=len(group)) as commit, self._write_lock:
            try:
                results = self._engine.write(ops)
            except BaseException as exc:  # resolve futures either way
                results = [exc] * len(ops)
                # State may have partially changed (a batch that died
                # midway); go stale rather than serve it cached.  The
                # journal marks the failed group so entry i keeps
                # corresponding to the epoch-i -> i+1 transition.
                self._journal_append(("failed", first.kind))
            else:
                self._journal_append(tuple(ops))
            finally:
                self._bump_epoch()
        # Acknowledge the writers first: telemetry below must never delay
        # (or, should it fail, strand) a client blocked on its future.
        for op, slot in zip(group, slots):
            outcome = results[slot]
            if isinstance(outcome, BaseException):
                op.future.set_exception(outcome)
            elif op.kind == "insert_batch":
                op.future.set_result(len(op.payload[0]))
            else:  # an insert's None; a delete's or update's removed record
                op.future.set_result(None if op.kind == "insert" else outcome)
        if OBS.enabled:
            OBS.count("serve.write_groups")
            OBS.observe("serve.group_size", len(group))
        self._note_slow(
            "commit", commit.seconds, kind=first.kind, ops=len(group),
            epoch=self._epoch,
        )

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


def _write_ops(group: list[WriteOp]) -> tuple[list[tuple], list[int]]:
    """A queued group as engine write ops, and each submission's op index.

    Each run of insert submissions is one ``("insert_batch", records)`` op:
    one loader pass, as one ``insert_batch`` call of them would be.
    """
    ops: list[tuple] = []
    slots: list[int] = []
    for op in group:
        if op.kind not in ("insert", "insert_batch"):
            ops.append((op.kind, *op.payload))
        else:
            if not ops or ops[-1][0] != "insert_batch":
                ops.append(("insert_batch", []))
            ops[-1][1].extend(op.payload if op.kind == "insert" else op.payload[0])
        slots.append(len(ops) - 1)
    return ops, slots
