"""Event tracing: individual timed spans in a bounded ring buffer.

The :class:`~repro.obs.registry.MetricsRegistry` answers "how many flushes
and how long in total"; this module answers "*which* flush sweep stalled
the bulk load at second three".  A :class:`Tracer` records one
:class:`TraceEvent` per closed :func:`repro.obs.span` — name, arguments,
start time, duration, parent span — in a fixed-capacity ring buffer (old
events are dropped, never reallocated), and exports the buffer as
Chrome/Perfetto ``traceEvents`` JSON so any run can be opened in
``chrome://tracing`` or https://ui.perfetto.dev.

Design constraints mirror the registry's:

1. **One boolean test when disabled.**  Spans append only while
   ``TRACE.enabled``; instant-event hooks guard with ``if TRACE.enabled:``.
2. **Bounded memory.**  The buffer is a ``deque(maxlen=capacity)``; a
   100M-record load cannot OOM the tracer, it merely keeps the most recent
   ``capacity`` events (the number dropped is reported on export).
3. **Standard library only** — importable from every layer.

Parents are tracked per thread (:data:`OPEN_SPANS`), so the serving
layer's writer thread and its reader threads never adopt each other's
spans.  The process-wide instance is :data:`repro.obs.TRACE`; the CLI
switches it on for any experiment with ``--trace out.json``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO, Any

#: Default ring-buffer capacity (events); ~65k complete spans.
DEFAULT_CAPACITY = 65_536


class _OpenSpans(threading.local):
    """One thread's stack of open spans, innermost last."""

    def __init__(self) -> None:
        self.stack: list[Any] = []


#: Per-thread open-span stacks; the innermost open span (anything with a
#: ``name``) is the parent of every event recorded on that thread.
OPEN_SPANS = _OpenSpans()


def current_parent() -> str | None:
    """The name of this thread's innermost open span, if any."""
    stack = OPEN_SPANS.stack
    return stack[-1].name if stack else None


class TraceEvent:
    """One recorded span or instant: who ran, when, for how long, under whom."""

    __slots__ = ("name", "start_us", "duration_us", "parent", "args")

    def __init__(
        self,
        name: str,
        start_us: float,
        duration_us: float,
        parent: str | None,
        args: dict[str, object] | None,
    ) -> None:
        self.name = name
        self.start_us = start_us
        self.duration_us = duration_us
        self.parent = parent
        self.args = args

    @property
    def category(self) -> str:
        """The name's dotted prefix (``"rtree"`` for ``"rtree.leaf_split"``)."""
        return self.name.partition(".")[0]

    @property
    def is_instant(self) -> bool:
        """True for zero-duration point events (``Tracer.instant``)."""
        return self.duration_us < 0

    def as_chrome(self) -> dict[str, object]:
        """This event in Chrome ``traceEvents`` form (``ph`` X or i)."""
        event: dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "ts": self.start_us,
            "pid": 1,
            "tid": 1,
        }
        if self.is_instant:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = self.duration_us
        args = dict(self.args) if self.args else {}
        if self.parent is not None:
            args["parent"] = self.parent
        if args:
            event["args"] = args
        return event


class Tracer:
    """A bounded event tracer behind one enable switch.

    Like the metrics registry, the tracer assumes its callers check
    ``tracer.enabled`` first; :func:`repro.obs.span` and
    :func:`repro.obs.record` do so for every span.
    """

    __slots__ = ("enabled", "_events", "_epoch", "_recorded")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.enabled = False
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._epoch = time.perf_counter()
        self._recorded = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(self, capacity: int | None = None, reset: bool = True) -> None:
        """Switch recording on; by default starts from an empty buffer."""
        if capacity is not None:
            if capacity < 1:
                raise ValueError("capacity must be at least 1")
            self._events = deque(self._events, maxlen=capacity)
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        """Switch recording off; buffered events remain exportable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every buffered event and restart the clock."""
        self._events.clear()
        self._recorded = 0
        self._epoch = time.perf_counter()

    # -- recording (callers check ``tracer.enabled`` first) ------------------

    def complete(
        self,
        name: str,
        start: float,
        seconds: float,
        parent: str | None,
        args: dict[str, object] | None,
    ) -> None:
        """Append one finished span that began at ``time.perf_counter()``
        value ``start`` and lasted ``seconds``."""
        self._record(
            TraceEvent(
                name,
                (start - self._epoch) * 1e6,
                seconds * 1e6,
                parent,
                args or None,
            )
        )

    def instant(self, name: str, **args: object) -> None:
        """Record a zero-duration point event under this thread's open span."""
        self._record(
            TraceEvent(
                name,
                (time.perf_counter() - self._epoch) * 1e6,
                -1.0,
                current_parent(),
                args or None,
            )
        )

    def _record(self, event: TraceEvent) -> None:
        self._recorded += 1
        self._events.append(event)

    # -- reads ---------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._events.maxlen or 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """How many events the ring buffer has overwritten."""
        return self._recorded - len(self._events)

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def event_names(self) -> set[str]:
        """Distinct event names currently buffered (tests, assertions)."""
        return {event.name for event in self._events}

    # -- export --------------------------------------------------------------

    def to_chrome(self) -> dict[str, object]:
        """The buffer as a Chrome/Perfetto ``traceEvents`` document.

        When the ring buffer overwrote events, the document leads with a
        metadata event (``ph`` M) naming the drop count, so a truncated
        trace announces itself inside every viewer, not just in
        ``otherData``.
        """
        events = sorted(self._events, key=lambda event: event.start_us)
        chrome_events: list[dict[str, object]] = []
        if self.dropped:
            chrome_events.append(
                {
                    "name": "tracer.dropped",
                    "ph": "M",
                    "ts": 0,
                    "pid": 1,
                    "tid": 1,
                    "cat": "__metadata",
                    "args": {
                        "dropped": self.dropped,
                        "recorded": self._recorded,
                        "capacity": self.capacity,
                    },
                }
            )
        chrome_events.extend(event.as_chrome() for event in events)
        return {
            "traceEvents": chrome_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "recorded": self._recorded,
                "dropped": self.dropped,
                "capacity": self.capacity,
            },
        }

    def export_chrome(self, target: str | Path | IO[str]) -> Path | None:
        """Write the ``traceEvents`` JSON to a path or an open stream.

        Returns the path written, or None when given a stream.  Open the
        result in ``chrome://tracing`` or https://ui.perfetto.dev.  A
        trace whose ring buffer dropped events also warns on stderr — the
        exported file is the most recent window, not the whole run.
        """
        document = self.to_chrome()
        if self.dropped:
            print(
                f"warning: trace ring buffer dropped {self.dropped} of "
                f"{self._recorded} events (capacity {self.capacity}); the "
                "export holds only the most recent window",
                file=sys.stderr,
            )
        if hasattr(target, "write"):
            json.dump(document, target)  # type: ignore[arg-type]
            return None
        path = Path(target)  # type: ignore[arg-type]
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path


def validate_chrome_trace(document: dict[str, object]) -> list[str]:
    """Structural check of an exported trace; returns problem messages.

    Used by tests and the CI smoke to assert export round-trips: the
    document must carry a ``traceEvents`` list whose entries have the
    ``ph``/``ts``/``name`` keys (and ``dur`` for complete events).
    """
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in ("ph", "ts", "name"):
            if key not in event:
                problems.append(f"event {index} is missing {key!r}")
        if event.get("ph") == "X" and "dur" not in event:
            problems.append(f"complete event {index} is missing 'dur'")
    return problems
