"""repro.obs — observability for the index/loader/storage stack.

Two process-wide singletons, each off by default and guarded by one
boolean check per hook while off:

* :data:`OBS` — the :class:`~repro.obs.registry.MetricsRegistry` of
  aggregate counters, gauges and histograms;
* :data:`TRACE` — the :class:`~repro.obs.trace.Tracer`, a bounded
  ring buffer of *individual* timed events exportable to Chrome/Perfetto
  ``traceEvents`` JSON (``repro <experiment> --trace out.json``).

A release's privacy audit (:func:`~repro.obs.audit.audit_release`: k
verdict, occupancy/volume distributions, quality metrics) is not process
state: every published :class:`~repro.core.partition.Release` carries its
own as ``release.audit``.

Every timed phase is one :class:`span` (or one :func:`record`, for a
duration timed elsewhere).  A span named ``core.release`` feeds the
``core.release_seconds`` histogram when :data:`OBS` is on and one
``core.release`` trace event when :data:`TRACE` is on, so ``/metrics``,
Chrome traces and the benchmark's layer timings report one measurement
under one name.

Metrics usage::

    from repro import obs

    obs.enable()
    anonymizer.bulk_load(table)          # hooks fire into obs.OBS
    print(obs.render_table())            # human-readable
    snapshot = obs.snapshot("bulk")      # JSON-serializable dict
    obs.disable()

Snapshots can also be pushed through pluggable sinks
(:class:`~repro.obs.sinks.JsonLinesSink` for machine-readable trails,
:class:`~repro.obs.sinks.TableSink` for humans,
:class:`~repro.obs.sinks.InMemorySink` for tests and deltas).  The
benchmark suite writes one snapshot per figure when ``REPRO_PROFILE`` is
set (and one trace per figure when ``REPRO_TRACE`` is set), and the CLI
exposes the same machinery as ``--profile`` / ``--profile-json`` /
``--trace`` and the ``repro stats`` / ``repro bench`` commands.
"""

from __future__ import annotations

import time

from repro.obs.audit import (
    AUDIT_RECORD_KEYS,
    AUDIT_SCHEMA_VERSION,
    audit_release,
)
from repro.obs.registry import (
    DEFAULT_COUNTERS,
    DEFAULT_GAUGES,
    DEFAULT_HISTOGRAMS,
    DEFAULT_METRICS,
    SPAN_NAMES,
    Histogram,
    MetricsRegistry,
    environment_block,
)
from repro.obs.render import render_live, render_snapshot
from repro.obs.sinks import InMemorySink, JsonLinesSink, Sink, TableSink
from repro.obs.trace import (
    OPEN_SPANS,
    TraceEvent,
    Tracer,
    current_parent,
    validate_chrome_trace,
)

#: The process-wide registry every built-in hook reports to.
OBS = MetricsRegistry()

#: The process-wide event tracer the built-in hooks record spans into.
TRACE = Tracer()

# Snapshots surface the tracer's drop counts so truncated traces are
# visible in ``repro stats`` / ``--profile`` output.
OBS.attach_tracer(TRACE)

class span:
    """Time one phase: ``with span("core.release", k=k) as timed: ...``.

    The clock is always read, so ``timed.seconds`` is there for callers
    such as the slow-op log whether or not collection is on.  On exit the
    duration feeds the ``<name>_seconds`` histogram when :data:`OBS` is
    enabled and one trace event (category: the name's dotted prefix,
    parent: this thread's enclosing span) when :data:`TRACE` is enabled.
    """

    __slots__ = ("name", "attrs", "parent", "start", "seconds")

    def __init__(self, name: str, **attrs: object) -> None:
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0

    def __enter__(self) -> "span":
        self.parent = current_parent()
        OPEN_SPANS.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self.start
        stack = OPEN_SPANS.stack
        if stack[-1] is self:
            stack.pop()
        else:  # an inner span, opened by a suspended generator, is still open
            stack.remove(self)
        _emit(self.name, self.start, self.seconds, self.parent, self.attrs)


def record(name: str, start: float, seconds: float, **attrs: object) -> None:
    """Report a span timed elsewhere, as :class:`span` would on exit.

    ``start`` is a ``time.perf_counter()`` value; the parent is this
    thread's innermost open span.  Used for queue waits (stamped at
    submit) and worker-process scans (timed inside the worker).
    """
    _emit(name, start, seconds, current_parent(), attrs)


def _emit(
    name: str,
    start: float,
    seconds: float,
    parent: str | None,
    attrs: dict[str, object],
) -> None:
    if OBS.enabled:
        OBS.observe(name + "_seconds", seconds)
    if TRACE.enabled:
        TRACE.complete(name, start, seconds, parent, attrs)


def enable(reset: bool = True) -> None:
    """Turn on collection on the process-wide registry."""
    OBS.enable(reset=reset)


def disable() -> None:
    """Turn off collection on the process-wide registry."""
    OBS.disable()


def reset() -> None:
    """Clear everything the process-wide registry has collected."""
    OBS.reset()


def snapshot(label: str | None = None) -> dict[str, object]:
    """A JSON-serializable copy of the process-wide registry's state."""
    return OBS.snapshot(label)


def render_table() -> str:
    """The process-wide registry's state as a human-readable table."""
    return OBS.render_table()


__all__ = [
    "AUDIT_RECORD_KEYS",
    "AUDIT_SCHEMA_VERSION",
    "DEFAULT_COUNTERS",
    "DEFAULT_GAUGES",
    "DEFAULT_HISTOGRAMS",
    "DEFAULT_METRICS",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricsRegistry",
    "OBS",
    "SPAN_NAMES",
    "Sink",
    "TRACE",
    "TableSink",
    "TraceEvent",
    "Tracer",
    "audit_release",
    "disable",
    "enable",
    "environment_block",
    "record",
    "render_live",
    "render_snapshot",
    "render_table",
    "reset",
    "snapshot",
    "span",
    "validate_chrome_trace",
]
