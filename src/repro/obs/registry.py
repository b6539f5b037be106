"""The metrics registry: counters, gauges, histograms, and timing spans.

The registry is the single collection point for everything the hot paths
(index, loader, storage, anonymizer) want to report.  Design constraints,
in order:

1. **Zero overhead when disabled.**  The default-constructed registry is
   disabled and every instrumented call site guards itself with a plain
   attribute check (``if OBS.enabled: ...``), so the production path pays
   one boolean test per hook — no function call, no allocation.  ``span``
   returns a shared no-op context manager when disabled.
2. **No dependencies.**  This module imports only the standard library so
   any layer of the system (including :mod:`repro.storage`, the lowest)
   can hook into it without import cycles.
3. **Cheap updates when enabled.**  Counters are dict slots; histograms
   keep streaming aggregates (count/sum/min/max) plus log-scale bucket
   counts rather than sample reservoirs, so enabling instrumentation on a
   100M-record load does not itself become the bottleneck being measured.
   The log buckets double as a quantile sketch: :meth:`Histogram.percentile`
   answers p50/p90/p99 with a bounded relative error (~4%), which is what
   the live serving telemetry (:mod:`repro.obs.live`) exposes.
4. **Thread-safe when shared.**  The serving layer updates one registry
   from its writer thread while reader threads observe release latencies
   and the telemetry endpoint snapshots concurrently; every mutation and
   snapshot happens under one internal lock.

Metric names are dotted strings (``"rtree.leaf_splits"``); the well-known
names emitted by the built-in hooks are declared in :data:`DEFAULT_METRICS`
so snapshots are schema-stable even for runs that never touch a given path
(a bulk load without a buffer pool still reports ``page.reads = 0``).
"""

from __future__ import annotations

import math
import platform
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sinks import Sink
    from repro.obs.trace import Tracer

#: Counter names pre-registered by :meth:`MetricsRegistry.enable` so every
#: snapshot carries the full schema of the built-in instrumentation.
DEFAULT_COUNTERS: tuple[str, ...] = (
    "rtree.inserts",
    "rtree.deletes",
    "rtree.updates",
    "rtree.leaf_splits",
    "rtree.internal_splits",
    "rtree.split_refusals",
    "rtree.dissolves",
    "rtree.reinserted_orphans",
    "rtree.mbr_recomputations",
    "buffer_tree.pushes",
    "buffer_tree.pushed_records",
    "buffer_tree.flushes",
    "buffer_tree.drains",
    "buffer_tree.drain_sweeps",
    "pool.hits",
    "pool.misses",
    "pool.evictions",
    "pool.writebacks",
    "page.reads",
    "page.writes",
    "page.allocations",
    "anonymizer.releases",
    "anonymizer.partitions",
    "kernels.keyed_records",
    "kernels.decoded_pages",
    "kernels.decoded_records",
    "kernels.group_mbrs",
    "wal.appends",
    "wal.bytes",
    "wal.fsyncs",
    "checkpoint.snapshots",
    "checkpoint.bytes",
    "recovery.replayed_ops",
    "recovery.discarded_ops",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_invalidations",
    "serve.epoch_bumps",
    "serve.write_groups",
    "serve.queued_writes",
    "serve.queries",
    "serve.slow_ops",
    "serve.telemetry.scrapes",
    "serve.telemetry.health_checks",
    "serve.telemetry.errors",
    "cluster.routed_inserts",
    "cluster.routed_records",
    "cluster.routed_deletes",
    "cluster.routed_updates",
    "cluster.cross_shard_updates",
    "cluster.releases",
    "cluster.release_records",
    "cluster.cache_hits",
    "cluster.cache_misses",
    "cluster.shard_failures",
    "cluster.queries",
    "query.engine_builds",
    "query.engine_cache_hits",
    "query.count_queries",
    "query.distinct_queries",
    "query.point_lookups",
    "query.groupby_queries",
    # Never emitted: the columnar query scan has no index nodes to visit.
    # Declared because perfbench/measures.py reads it from the registry
    # snapshot and would raise KeyError without it.
    "query.nodes_visited",
    # Partition comparisons: partitions x queries per scan.
    "query.partitions_scanned",
)

#: Gauge names pre-registered alongside the counters (point-in-time levels).
DEFAULT_GAUGES: tuple[str, ...] = (
    "serve.queue_depth",
    "serve.backpressure",
    "serve.epoch",
    "cluster.shards",
    "cluster.dead_shards",
    "cluster.epoch",
)

#: Histogram names pre-registered alongside the counters.
DEFAULT_HISTOGRAMS: tuple[str, ...] = (
    "rtree.routing_depth",
    "buffer_tree.records_per_flush",
    "serve.queue_wait_seconds",
    "serve.group_size",
    "serve.commit_seconds",
    "serve.release_seconds",
    "serve.snapshot_swap_seconds",
    "wal.fsync_seconds",
    "cluster.release_seconds",
    "cluster.query_seconds",
    "serve.query_seconds",
)

#: Everything :meth:`MetricsRegistry.enable` declares up front.
DEFAULT_METRICS: tuple[str, ...] = (
    DEFAULT_COUNTERS + DEFAULT_GAUGES + DEFAULT_HISTOGRAMS
)


#: Log-bucket resolution: sub-buckets per octave (power of two).  Bucket
#: ``i`` covers ``(2^((i-1)/8), 2^(i/8)]``; reporting a bucket's geometric
#: midpoint bounds the relative quantile error at ``2^(1/16) - 1`` (~4.4%).
_SUBBUCKETS_PER_OCTAVE = 8

_BUCKET_SCALE = _SUBBUCKETS_PER_OCTAVE  # index = ceil(log2(v) * scale)


class Histogram:
    """Streaming value distribution: aggregates plus a log-bucket sketch.

    The sketch is HDR-style: values land in logarithmically spaced buckets
    (8 per octave, so sub-microsecond fsyncs and multi-second stalls share
    one structure), and :meth:`percentile` walks the cumulative counts to
    estimate any quantile with ~4% relative error.  Non-positive values
    are tallied separately (``zeros``) so latency histograms fed exact
    zeros stay well-defined.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: observations with value <= 0 (kept out of the log buckets).
        self.zeros = 0
        #: bucket index -> count; value v lands in ceil(log2(v) * 8).
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.ceil(math.log2(value) * _BUCKET_SCALE)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the sketch.

        Returns 0.0 for an empty histogram.  The estimate is the geometric
        midpoint of the bucket holding the requested rank, clamped to the
        exact observed [min, max] so p0/p100 are always truthful.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = min(max(1, math.ceil(q * self.count)), self.count)
        if rank == self.count:
            return self.maximum  # p100 is tracked exactly
        if rank <= self.zeros:
            return self.minimum if self.minimum < 0.0 else 0.0
        remaining = rank - self.zeros
        for index in sorted(self.buckets):
            remaining -= self.buckets[index]
            if remaining <= 0:
                estimate = 2.0 ** ((index - 0.5) / _BUCKET_SCALE)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0,
            "max": self.maximum if self.count else 0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": self._bucket_labels(),
        }

    def _bucket_labels(self) -> dict[str, int]:
        labels: dict[str, int] = {}
        if self.zeros:
            labels["<=0"] = self.zeros
        for index, count in sorted(self.buckets.items()):
            bound = 2.0 ** (index / _BUCKET_SCALE)
            labels[f"<={bound:.4g}"] = count
        return labels


class _SpanAggregate:
    """Accumulated wall time for one span path."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def as_dict(self) -> dict[str, float]:
        return {"count": self.count, "total_s": self.total}


class _Span:
    """A live timing span; nesting builds slash-joined paths.

    ``with OBS.span("bulk_load"): ... with OBS.span("drain"): ...``
    accumulates under ``"bulk_load"`` and ``"bulk_load/drain"``, so the
    snapshot exposes both the inclusive parent time and the child's share.
    """

    __slots__ = ("_registry", "_name", "_path", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._path = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        registry = self._registry
        with registry._lock:
            stack = registry._span_stack
            stack.append(self._name)
            self._path = "/".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        with registry._lock:
            if registry._span_stack and registry._span_stack[-1] == self._name:
                registry._span_stack.pop()
            aggregate = registry._spans.get(self._path)
            if aggregate is None:
                aggregate = registry._spans[self._path] = _SpanAggregate()
            aggregate.count += 1
            aggregate.total += elapsed


class _NullSpan:
    """The shared do-nothing span handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = _NullSpan()


#: Cached ``git`` results; each resolved at most once per process.
_GIT_CACHE: dict[str, object] = {}


def _git(*args: str) -> str | None:
    """Stripped stdout of one ``git`` command, or None when it fails."""
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=5, check=True
        ).stdout.strip()
    except Exception:
        return None


def _git_revision() -> str | None:
    """The current short git revision, or None outside a repository."""
    if "revision" not in _GIT_CACHE:
        _GIT_CACHE["revision"] = _git("rev-parse", "--short", "HEAD") or None
    return _GIT_CACHE["revision"]  # type: ignore[return-value]


def _git_dirty() -> bool | None:
    """Whether the work tree differs from ``HEAD`` (tracked changes or
    untracked files), or None when there is no revision to differ from."""
    if "dirty" not in _GIT_CACHE:
        status = _git("status", "--porcelain") if _git_revision() else None
        _GIT_CACHE["dirty"] = None if status is None else bool(status)
    return _GIT_CACHE["dirty"]  # type: ignore[return-value]


def environment_block() -> dict[str, object]:
    """Machine/run metadata stamped onto every snapshot.

    Makes ``--profile-json`` trails (and the bench trajectory) from
    different machines comparable: a slower run is explainable when the
    snapshot says which interpreter, platform and revision produced it.
    ``git_dirty`` flags a work tree that differs from that revision.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pointer_bits": sys.maxsize.bit_length() + 1,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_revision": _git_revision(),
        "git_dirty": _git_dirty(),
    }


class MetricsRegistry:
    """Counters, gauges, histograms and spans behind one enable switch.

    Instrumented call sites hold a module reference to a registry (usually
    the process-wide :data:`repro.obs.OBS`) and guard every update with
    ``if registry.enabled:`` — the registry's methods assume the guard and
    do no re-checking of their own.  Every mutation and read happens under
    one internal lock, so the serving layer's writer thread, its reader
    threads, and the live telemetry endpoint can share one registry
    without tearing counts.
    """

    __slots__ = (
        "enabled",
        "_lock",
        "_counters",
        "_gauges",
        "_histograms",
        "_spans",
        "_span_stack",
        "_declared",
        "_tracer",
    )

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, _SpanAggregate] = {}
        self._span_stack: list[str] = []
        self._declared: set[str] = set()
        self._tracer: "Tracer | None" = None

    # -- lifecycle -----------------------------------------------------------

    def enable(self, reset: bool = True, declare_defaults: bool = True) -> None:
        """Switch collection on; by default starts from a clean slate."""
        if reset:
            self.reset()
        if declare_defaults:
            self.declare(
                counters=DEFAULT_COUNTERS,
                gauges=DEFAULT_GAUGES,
                histograms=DEFAULT_HISTOGRAMS,
            )
        self.enabled = True

    def disable(self) -> None:
        """Switch collection off; collected values remain readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every collected value (the enable switch is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._span_stack.clear()
            self._declared.clear()

    def declare(
        self,
        counters: Iterable[str] = (),
        gauges: Iterable[str] = (),
        histograms: Iterable[str] = (),
    ) -> None:
        """Pre-register metric names so they appear in snapshots at zero.

        Declared names are also remembered, so :meth:`undeclared` can flag
        typo'd metric names that appeared only at their emit site.
        """
        with self._lock:
            for name in counters:
                self._counters.setdefault(name, 0)
                self._declared.add(name)
            for name in gauges:
                self._gauges.setdefault(name, 0.0)
                self._declared.add(name)
            for name in histograms:
                if name not in self._histograms:
                    self._histograms[name] = Histogram()
                self._declared.add(name)

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Attach the tracer whose drop counts snapshots should surface."""
        self._tracer = tracer

    def undeclared(self) -> dict[str, list[str]]:
        """Collected metric names that were never :meth:`declare`-d.

        Returns ``{"counters": [...], "gauges": [...], "histograms": [...]}``
        — all empty when every emit site spells a declared name.  A name
        that only exists because ``count()``/``observe()`` created it on
        first touch is exactly the typo this check catches.
        """
        with self._lock:
            return {
                "counters": sorted(
                    name for name in self._counters if name not in self._declared
                ),
                "gauges": sorted(
                    name for name in self._gauges if name not in self._declared
                ),
                "histograms": sorted(
                    name for name in self._histograms if name not in self._declared
                ),
            }

    # -- updates (call sites must guard with ``if registry.enabled``) --------

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a monotonically increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time level (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a histogram."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def span(self, name: str) -> "_Span | _NullSpan":
        """A timing context manager; a shared no-op while disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name)

    # -- reads ---------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-quantile of one histogram (0.0 when it has no data)."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.percentile(q) if histogram is not None else 0.0

    def snapshot(self, label: str | None = None) -> dict[str, object]:
        """A JSON-serializable copy of everything collected so far.

        Every snapshot carries an ``environment`` block (interpreter,
        platform, timestamp, git revision) so trails recorded on different
        machines remain comparable.  When a tracer is attached
        (:meth:`attach_tracer`) and has recorded events, a ``trace`` block
        reports its recorded/buffered/dropped counts — a truncated ring
        buffer is no longer silent.
        """
        with self._lock:
            snapshot: dict[str, object] = {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
                "spans": {
                    path: aggregate.as_dict()
                    for path, aggregate in sorted(self._spans.items())
                },
                "environment": environment_block(),
            }
        tracer = self._tracer
        if tracer is not None and (tracer.enabled or len(tracer) or tracer.dropped):
            snapshot["trace"] = {
                "recorded": tracer.dropped + len(tracer),
                "buffered": len(tracer),
                "dropped": tracer.dropped,
                "capacity": tracer.capacity,
            }
        if label is not None:
            snapshot["label"] = label
        return snapshot

    def emit(self, sink: "Sink", label: str | None = None) -> None:
        """Push the current snapshot into a sink."""
        sink.emit(self.snapshot(label))

    def render_table(self) -> str:
        """A human-readable multi-section table of the current snapshot.

        Delegates to :func:`repro.obs.render.render_snapshot`, the same
        renderer :class:`~repro.obs.sinks.TableSink` uses, so the two
        outputs can never drift apart.
        """
        from repro.obs.render import render_snapshot

        return render_snapshot(self.snapshot())
