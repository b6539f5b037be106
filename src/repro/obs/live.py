"""repro.obs.live — live serving telemetry: endpoint, watchdog, slow-op log.

Everything :mod:`repro.obs` built so far is post-hoc: ``--profile``
snapshots and trace exports you read after a run ends.  This module is
the *live* half, built for the serving layer (:mod:`repro.serve`):

* :class:`TelemetryConfig` — the opt-in knobs a
  :class:`~repro.serve.ServiceConfig` carries;
* :class:`TelemetryServer` — a stdlib ``http.server`` thread exposing
  ``/metrics`` (Prometheus text exposition format, quantiles included)
  and ``/healthz`` (JSON) for a running service;
* :class:`WriterWatchdog` — a heartbeat the service's writer thread
  beats; health degrades ``healthy → degraded → stalled`` when work is
  pending but the heartbeat ages (an idle writer is healthy, a frozen
  one with queued writes is not);
* :class:`SlowOpLog` — a sampled structured-JSONL log of operations that
  exceeded a latency threshold, with their most recent trace spans
  attached (reuses :class:`~repro.obs.sinks.JsonLinesSink`);
* :func:`prometheus_text` / :func:`parse_prometheus_text` — the
  exposition renderer and the parser ``repro top`` and the CI smoke use.

Standard library only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping

from repro.obs import OBS, TRACE
from repro.obs.sinks import JsonLinesSink

#: Health states, least to most severe.
HEALTHY = "healthy"
DEGRADED = "degraded"
STALLED = "stalled"

#: Numeric severity for the ``repro_serve_health`` gauge.
HEALTH_CODES = {HEALTHY: 0, DEGRADED: 1, STALLED: 2}

#: Quantiles exported for every histogram (Prometheus summary style).
EXPORT_QUANTILES = (0.5, 0.9, 0.99)

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: One exposition sample line: name, optional {labels}, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass(frozen=True, kw_only=True)
class TelemetryConfig:
    """Opt-in live-telemetry knobs (keyword-only) for the serving layer.

    ``endpoint`` starts the HTTP thread (``port=0`` picks an ephemeral
    port; read it back from the service's ``telemetry_address``).  The
    slow-op log activates when ``slow_op_log`` names a path: any
    operation slower than ``slow_op_threshold`` seconds is recorded
    (every ``slow_op_sample``-th one, with up to ``slow_op_spans`` recent
    trace spans attached when tracing is on).  The watchdog flips health
    to ``degraded`` / ``stalled`` when writes are pending but the writer
    heartbeat is older than the respective threshold.
    """

    endpoint: bool = False
    host: str = "127.0.0.1"
    port: int = 0
    slow_op_log: str | Path | None = None
    slow_op_threshold: float = 0.25
    slow_op_sample: int = 1
    slow_op_spans: int = 16
    degraded_after: float = 1.0
    stalled_after: float = 5.0

    def __post_init__(self) -> None:
        if self.slow_op_sample < 1:
            raise ValueError("slow_op_sample must be at least 1")
        if self.degraded_after <= 0 or self.stalled_after < self.degraded_after:
            raise ValueError(
                "thresholds must satisfy 0 < degraded_after <= stalled_after"
            )


class WriterWatchdog:
    """Heartbeat-based health for a single-writer loop.

    The writer calls :meth:`beat` every time it makes progress (wakes,
    applies a group).  :meth:`assess` takes the number of pending
    operations: with nothing pending the writer is allowed to sleep
    forever (``healthy``); with work pending, health is judged by how
    long the work has been waiting *since the later of* the last beat
    and the moment the backlog was first observed — so a long-idle
    writer is not declared stalled in the instant between a submit and
    its wake-up.
    """

    def __init__(
        self, degraded_after: float = 1.0, stalled_after: float = 5.0
    ) -> None:
        if degraded_after <= 0 or stalled_after < degraded_after:
            raise ValueError(
                "thresholds must satisfy 0 < degraded_after <= stalled_after"
            )
        self._degraded_after = degraded_after
        self._stalled_after = stalled_after
        self._lock = threading.Lock()
        self._last_beat = time.monotonic()
        self._pending_since: float | None = None

    def beat(self) -> None:
        """Record writer progress (called from the writer thread)."""
        with self._lock:
            self._last_beat = time.monotonic()

    def age(self) -> float:
        """Seconds since the last beat."""
        with self._lock:
            return time.monotonic() - self._last_beat

    def assess(self, pending: int) -> str:
        """Current health given ``pending`` not-yet-applied operations."""
        now = time.monotonic()
        with self._lock:
            if pending <= 0:
                self._pending_since = None
                return HEALTHY
            if self._pending_since is None:
                self._pending_since = now
            waited = now - max(self._last_beat, self._pending_since)
        if waited >= self._stalled_after:
            return STALLED
        if waited >= self._degraded_after:
            return DEGRADED
        return HEALTHY


class SlowOpLog:
    """A sampled structured-JSONL log of over-threshold operations.

    Each entry carries the operation kind, its latency, caller-supplied
    context, and — when the process-wide tracer is enabled — the most
    recent trace spans, so a slow commit arrives with the flush sweeps
    and page I/O that made it slow.  ``sample_every=n`` keeps every n-th
    over-threshold op (the first always records), bounding log volume
    under a latency storm.
    """

    def __init__(
        self,
        path: str | Path,
        threshold: float = 0.25,
        *,
        sample_every: int = 1,
        max_spans: int = 16,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.threshold = threshold
        self._sample_every = sample_every
        self._max_spans = max_spans
        self._sink = JsonLinesSink(path)
        self._lock = threading.Lock()
        self._seen = 0
        self.recorded = 0

    @property
    def path(self) -> Path:
        return self._sink.path

    def record(self, op: str, seconds: float, **context: object) -> bool:
        """Record one operation if it crossed the threshold and the sample.

        ``op`` names the operation class ("commit", "release"); everything
        else about it travels in ``**context`` (which may therefore carry
        a ``kind=`` key of its own, e.g. the write kind of a commit).
        Returns True when an entry was written.
        """
        if seconds < self.threshold:
            return False
        with self._lock:
            self._seen += 1
            if (self._seen - 1) % self._sample_every:
                return False
            entry: dict[str, object] = {
                "ts": time.time(),
                "op": op,
                "seconds": seconds,
                "threshold": self.threshold,
            }
            if context:
                entry["context"] = context
            if TRACE.enabled:
                entry["spans"] = [
                    {
                        "name": event.name,
                        "category": event.category,
                        "start_us": event.start_us,
                        "duration_us": event.duration_us,
                        "parent": event.parent,
                        "args": event.args,
                    }
                    for event in TRACE.events()[-self._max_spans :]
                ]
            self._sink.emit(entry)
            self.recorded += 1
        if OBS.enabled:
            OBS.count("serve.slow_ops")
        return True

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "SlowOpLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def metric_name(name: str) -> str:
    """A repro metric name in Prometheus form (``serve.commit_seconds`` →
    ``repro_serve_commit_seconds``)."""
    return "repro_" + _INVALID_METRIC_CHARS.sub("_", name)


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def prometheus_text(
    snapshot: Mapping[str, object],
    extra_gauges: Mapping[str, float] | None = None,
) -> str:
    """A metrics snapshot in the Prometheus text exposition format (0.0.4).

    Counters export as ``counter``, gauges as ``gauge``, histograms as
    ``summary`` (p50/p90/p99 ``quantile`` samples plus ``_sum`` and
    ``_count``).  ``extra_gauges`` lets a caller splice in live values
    that are not in the registry — the serving layer adds its epoch,
    queue depth, backpressure and health code this way.
    """
    lines: list[str] = []
    counters: Mapping[str, int] = snapshot.get("counters") or {}  # type: ignore[assignment]
    for name, value in sorted(counters.items()):
        exported = metric_name(name)
        lines.append(f"# TYPE {exported} counter")
        lines.append(f"{exported} {_format_value(value)}")
    gauges: dict[str, float] = dict(snapshot.get("gauges") or {})  # type: ignore[arg-type]
    if extra_gauges:
        gauges.update(extra_gauges)
    for name, value in sorted(gauges.items()):
        exported = metric_name(name)
        lines.append(f"# TYPE {exported} gauge")
        lines.append(f"{exported} {_format_value(value)}")
    histograms: Mapping[str, Mapping[str, object]] = (
        snapshot.get("histograms") or {}  # type: ignore[assignment]
    )
    for name, histogram in sorted(histograms.items()):
        exported = metric_name(name)
        lines.append(f"# TYPE {exported} summary")
        for quantile in EXPORT_QUANTILES:
            key = f"p{int(quantile * 100)}"
            value = float(histogram.get(key, 0.0))  # type: ignore[arg-type]
            lines.append(
                f'{exported}{{quantile="{quantile}"}} {_format_value(value)}'
            )
        lines.append(
            f"{exported}_sum {_format_value(float(histogram.get('sum', 0.0)))}"  # type: ignore[arg-type]
        )
        lines.append(
            f"{exported}_count {_format_value(int(histogram.get('count', 0)))}"  # type: ignore[arg-type]
        )
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus exposition text into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs (empty for
    unlabelled samples).  Raises :class:`ValueError` on any line that is
    neither a comment, blank, nor a well-formed sample — the CI smoke
    leans on this to assert the endpoint speaks the format.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(stripped)
        if match is None:
            raise ValueError(f"line {number} is not a Prometheus sample: {line!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted((key, value) for key, value in _LABEL_PAIR.findall(labels_text))
        )
        try:
            value = float(match.group("value"))
        except ValueError as error:
            raise ValueError(
                f"line {number} has a non-numeric value: {line!r}"
            ) from error
        samples[(match.group("name"), labels)] = value
    return samples


class _TelemetryHTTPServer(ThreadingHTTPServer):
    """The underlying server, carrying the content callables."""

    daemon_threads = True
    # The service restarts fast in tests; don't hold the port hostage.
    allow_reuse_address = True

    metrics_fn: Callable[[], str]
    health_fn: Callable[[], Mapping[str, object]]


class _TelemetryHandler(BaseHTTPRequestHandler):
    server: _TelemetryHTTPServer  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                if OBS.enabled:
                    OBS.count("serve.telemetry.scrapes")
                body = self.server.metrics_fn().encode("utf-8")
                self._reply(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path in ("/healthz", "/health"):
                if OBS.enabled:
                    OBS.count("serve.telemetry.health_checks")
                document = self.server.health_fn()
                body = json.dumps(document, sort_keys=True).encode("utf-8")
                status = 503 if document.get("status") == STALLED else 200
                self._reply(status, "application/json; charset=utf-8", body)
            else:
                self._reply(404, "text/plain; charset=utf-8", b"not found\n")
        except Exception as error:  # pragma: no cover - defensive
            if OBS.enabled:
                OBS.count("serve.telemetry.errors")
            self._reply(
                500,
                "text/plain; charset=utf-8",
                f"telemetry error: {error}\n".encode("utf-8"),
            )

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default per-request stderr logging."""


class TelemetryServer:
    """An opt-in HTTP endpoint thread serving ``/metrics`` and ``/healthz``.

    ``metrics_fn`` returns the exposition text, ``health_fn`` the health
    document; both are called per request on a server thread, so they
    must be thread-safe (the registry snapshot and the service's health
    accessor are).  ``port=0`` binds an ephemeral port — read
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        metrics_fn: Callable[[], str],
        health_fn: Callable[[], Mapping[str, object]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = _TelemetryHTTPServer((host, port), _TelemetryHandler)
        self._server.metrics_fn = metrics_fn
        self._server.health_fn = health_fn
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — final even when constructed with port 0."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Start serving on a daemon thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop the server thread and release the socket.  Idempotent."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join()
            self._thread = None
        self._server.server_close()


__all__ = [
    "DEGRADED",
    "EXPORT_QUANTILES",
    "HEALTH_CODES",
    "HEALTHY",
    "STALLED",
    "SlowOpLog",
    "TelemetryConfig",
    "TelemetryServer",
    "WriterWatchdog",
    "metric_name",
    "parse_prometheus_text",
    "prometheus_text",
]
