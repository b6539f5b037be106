"""In-memory spans around the public entry points of each layer.

A traced run installs :func:`instrument`, which replaces each entry point
listed by :func:`_entry_points` *where it is bound* (the name the caller
looks up) with a wrapper that records one span: name, start, end, parent
span and the harness's current step id.  Spans stay in memory until the
run ends; nothing is written while the workload runs.  Leaving the
``with`` block restores every original binding, so an untraced run in the
same process sees the program exactly as shipped.

Layer names are the module names under ``src/repro/`` (``core``,
``index``, ``parallel``, ``obs``, ``serve``, ``durability``, ``query``).
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread; parents are tracked per thread.

    ``step`` is set by the harness before each scheduled operation, so a
    span recorded on the service's writer thread still carries the step
    that caused it.  ``delays`` maps a span name to a fraction: the
    wrapper sleeps that share of the call's own duration before closing
    the span, which is how the sensitivity self-test slows one layer.
    """

    def __init__(self, delays: dict[str, float] | None = None) -> None:
        self.spans: list[Span] = []
        self.step: object = None
        self._delays = dict(delays or {})
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, function: Callable) -> Callable:
        delay = self._delays.get(name, 0.0)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            step = self.step
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if delay:
                    time.sleep((end - start) * delay)
                    end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, step))

        return traced

    # -- analysis --------------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        return {
            span.span_id: span.seconds - children.get(span.span_id, 0.0)
            for span in self.spans
        }

    def named(self, name: str) -> list[Span]:
        """Spans called ``name`` recorded during a scheduled step."""
        return [
            span
            for span in self.spans
            if span.name == name and isinstance(span.step, int)
        ]


def _entry_points() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped entry point."""
    import repro.api
    import repro.core.anonymizer
    import repro.parallel
    import repro.query.engine
    import repro.serve.service
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.durability.wal import WriteAheadLog
    from repro.serve.service import AnonymizerService

    return [
        # index: bulk loads (file loads call parallel.scan inside) and the
        # incremental write path.
        ("index.load", RTreeAnonymizer, "bulk_load"),
        ("index.load", RTreeAnonymizer, "bulk_load_file"),
        ("index.insert_batch", RTreeAnonymizer, "insert_batch"),
        ("index.delete", RTreeAnonymizer, "delete"),
        ("index.update", RTreeAnonymizer, "update"),
        # parallel: bulk_load_file imports it from the package at call time.
        ("parallel.scan", repro.parallel, "scan_file_shards"),
        # core: the release and its two halves, as _emit_release binds them.
        ("core.release", RTreeAnonymizer, "anonymize"),
        ("core.group", repro.core.anonymizer, "subtree_scan"),
        ("core.compact", repro.core.anonymizer, "build_compacted_partitions"),
        ("core.digest", repro.serve.service, "release_digest"),
        ("core.digest", repro.api, "release_digest"),
        # obs: the per-release audit, at both publish sites.
        ("obs.audit", repro.serve.service, "audit_release"),
        ("obs.audit", repro.api, "audit_release"),
        # serve: the reader-facing release and query calls.
        ("serve.release", AnonymizerService, "release"),
        ("serve.query", AnonymizerService, "query"),
        # durability: every WAL flush (a no-op when nothing is dirty).
        ("durability.sync", WriteAheadLog, "sync"),
        # query: engine construction as the service binds it, evaluation.
        ("query.engine_build", repro.serve.service, "QueryEngine"),
        ("query.evaluate", repro.query.engine.QueryEngine, "evaluate"),
    ]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, owner, attribute in _entry_points():
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

