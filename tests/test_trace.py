"""The event tracer: ring buffer, span nesting, Chrome export, CLI wiring."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.table import Table
from repro.obs import TRACE, Tracer, span, validate_chrome_trace

from tests.conftest import random_records


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Keep the process-wide tracer off between tests."""
    yield
    TRACE.disable()
    TRACE.reset()


class TestTracer:
    def test_disabled_by_default_and_span_records_nothing(self) -> None:
        assert not Tracer().enabled
        assert not TRACE.enabled
        with span("anything", key=1) as timed:
            pass
        assert len(TRACE) == 0
        # The clock is read either way, for callers such as the slow-op log.
        assert timed.seconds >= 0

    def test_span_records_event_with_timing(self) -> None:
        TRACE.enable()
        with span("test.work", items=3) as timed:
            pass
        (event,) = TRACE.events()
        assert event.name == "test.work"
        assert event.category == "test"  # the name's dotted prefix
        assert event.args == {"items": 3}
        assert event.duration_us == timed.seconds * 1e6
        assert not event.is_instant

    def test_nested_spans_record_parent(self) -> None:
        TRACE.enable()
        with span("outer"):
            with span("inner"):
                pass
            TRACE.instant("ping")
        by_name = {event.name: event for event in TRACE.events()}
        assert by_name["outer"].parent is None
        assert by_name["inner"].parent == "outer"
        assert by_name["ping"].parent == "outer"
        assert by_name["ping"].is_instant

    def test_parent_stacks_are_per_thread(self) -> None:
        # Span "a" on one thread overlaps span "b" on another.  Neither may
        # adopt the other as parent, and "a" must not stay open afterwards
        # as the parent of every later span in the process.
        TRACE.enable()
        a_open = threading.Event()
        b_closed = threading.Event()

        def hold_a() -> None:
            with span("a"):
                a_open.set()
                assert b_closed.wait(5)

        def run_b() -> None:
            assert a_open.wait(5)
            with span("b"):
                pass
            b_closed.set()

        threads = [threading.Thread(target=hold_a), threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        with span("later"):
            pass
        parents = {event.name: event.parent for event in TRACE.events()}
        assert parents == {"a": None, "b": None, "later": None}

    def test_span_closing_under_a_suspended_generator_span(self) -> None:
        # The generator's span opens inside "consumer" and is still open
        # when "consumer" closes; only the closed span leaves the stack.
        TRACE.enable()

        def produce():
            with span("producer"):
                yield 1
                yield 2

        items = produce()
        with span("consumer"):
            next(items)
        with span("between"):
            pass
        assert list(items) == [2]
        with span("later"):
            pass
        parents = {event.name: event.parent for event in TRACE.events()}
        assert parents == {
            "consumer": None,
            "producer": "consumer",
            "between": "producer",
            "later": None,
        }

    def test_ring_buffer_bounds_memory_and_counts_drops(self) -> None:
        tracer = Tracer(capacity=8)
        tracer.enable()
        for index in range(20):
            tracer.instant(f"event-{index}")
        assert len(tracer) == 8
        assert tracer.dropped == 12
        # The buffer keeps the most recent events.
        assert tracer.event_names() == {f"event-{index}" for index in range(12, 20)}

    def test_enable_can_resize_capacity(self) -> None:
        tracer = Tracer(capacity=4)
        tracer.enable(capacity=2)
        assert tracer.capacity == 2
        with pytest.raises(ValueError):
            tracer.enable(capacity=0)
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_reset_restarts_clock_and_empties_buffer(self) -> None:
        tracer = Tracer()
        tracer.enable()
        tracer.instant("before")
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        tracer.instant("after")
        assert tracer.event_names() == {"after"}


class TestChromeExport:
    def test_round_trip_through_json_validates(self, tmp_path) -> None:
        TRACE.enable()
        with span("loader.load", records=10):
            TRACE.instant("loader.sweep", level=0)
        path = TRACE.export_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        assert {event["name"] for event in events} == {"loader.load", "loader.sweep"}
        complete = next(e for e in events if e["name"] == "loader.load")
        assert complete["ph"] == "X"
        assert complete["cat"] == "loader"
        assert complete["dur"] >= 0
        assert complete["args"] == {"records": 10}
        instant = next(e for e in events if e["name"] == "loader.sweep")
        assert instant["ph"] == "i"
        assert instant["args"] == {"level": 0, "parent": "loader.load"}
        assert document["otherData"]["dropped"] == 0

    def test_export_to_stream(self) -> None:
        tracer = Tracer()
        tracer.enable()
        tracer.instant("only")
        stream = io.StringIO()
        assert tracer.export_chrome(stream) is None
        document = json.loads(stream.getvalue())
        assert validate_chrome_trace(document) == []

    def test_events_sorted_by_start_time(self) -> None:
        TRACE.enable()
        # The outer span finishes last but started first: export must
        # re-sort by start so the timeline reads left to right.
        with span("outer"):
            TRACE.instant("early")
        timestamps = [
            event["ts"] for event in TRACE.to_chrome()["traceEvents"]
        ]
        assert timestamps == sorted(timestamps)

    def test_validator_reports_malformed_documents(self) -> None:
        assert validate_chrome_trace({}) == ["document has no traceEvents list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0.0}, "nonsense"]}
        )
        assert any("missing 'name'" in problem for problem in problems)
        assert any("missing 'dur'" in problem for problem in problems)
        assert any("not an object" in problem for problem in problems)


class TestDropSurfacing:
    def test_truncated_trace_leads_with_metadata_event(self) -> None:
        tracer = Tracer(capacity=4)
        tracer.enable()
        for index in range(10):
            tracer.instant(f"event-{index}")
        document = tracer.to_chrome()
        assert validate_chrome_trace(document) == []
        first = document["traceEvents"][0]
        assert first["ph"] == "M"
        assert first["name"] == "tracer.dropped"
        assert first["args"] == {"dropped": 6, "recorded": 10, "capacity": 4}

    def test_untruncated_trace_has_no_metadata_event(self) -> None:
        tracer = Tracer(capacity=16)
        tracer.enable()
        tracer.instant("only")
        phases = {event["ph"] for event in tracer.to_chrome()["traceEvents"]}
        assert "M" not in phases

    def test_export_warns_on_stderr_when_dropped(self, tmp_path, capsys) -> None:
        tracer = Tracer(capacity=2)
        tracer.enable()
        for index in range(5):
            tracer.instant(f"event-{index}")
        tracer.export_chrome(tmp_path / "trace.json")
        error_output = capsys.readouterr().err
        assert "dropped 3 of 5 events" in error_output
        assert "most recent window" in error_output

    def test_export_is_silent_without_drops(self, tmp_path, capsys) -> None:
        tracer = Tracer()
        tracer.enable()
        tracer.instant("only")
        tracer.export_chrome(tmp_path / "trace.json")
        assert capsys.readouterr().err == ""

    def test_snapshot_surfaces_attached_tracer_drops(self) -> None:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(capacity=4)
        registry.attach_tracer(tracer)
        assert "trace" not in registry.snapshot()  # idle tracer: no block
        tracer.enable()
        for index in range(10):
            tracer.instant(f"event-{index}")
        trace_block = registry.snapshot()["trace"]
        assert trace_block == {
            "recorded": 10,
            "buffered": 4,
            "dropped": 6,
            "capacity": 4,
        }

    def test_global_snapshot_and_stats_render_trace_block(self) -> None:
        from repro.obs.trace import DEFAULT_CAPACITY

        # The process-wide OBS has TRACE attached at import time.
        obs.enable()
        TRACE.enable(capacity=4)
        try:
            for index in range(9):
                TRACE.instant(f"event-{index}")
            snapshot = obs.snapshot()
            assert snapshot["trace"]["dropped"] == 5
            rendering = obs.render_table()
            assert "== trace ==" in rendering
            assert "dropped" in rendering
        finally:
            TRACE.enable(capacity=DEFAULT_CAPACITY)  # restore the ring size
            TRACE.disable()
            TRACE.reset()
            obs.disable()
            obs.reset()


class TestInstrumentedPaths:
    def test_bulk_load_traces_flushes_and_splits(self, schema3) -> None:
        table = Table(schema3, random_records(1_500, seed=7))
        TRACE.enable()
        anonymizer = RTreeAnonymizer(table, base_k=5, leaf_capacity=9)
        anonymizer.bulk_load(table)
        anonymizer.anonymize(10)
        TRACE.disable()
        names = TRACE.event_names()
        assert "index.load" in names
        assert "buffer_tree.flush" in names
        assert "buffer_tree.drain_sweep" in names
        assert "rtree.leaf_split" in names
        assert {"core.release", "core.group", "core.compact"} <= names

    def test_disabled_tracer_records_nothing_on_hot_paths(self, schema3) -> None:
        table = Table(schema3, random_records(600, seed=8))
        assert not TRACE.enabled
        anonymizer = RTreeAnonymizer(table, base_k=5, leaf_capacity=9)
        anonymizer.bulk_load(table)
        anonymizer.anonymize(5)
        assert len(TRACE) == 0


class TestCLITrace:
    def test_fig7a_trace_flag_writes_valid_chrome_json(self, tmp_path) -> None:
        from repro.cli import main

        target = tmp_path / "fig7a.trace.json"
        exit_code = main(
            ["fig7a", "--records", "1000", "--trace", str(target)]
        )
        assert exit_code == 0
        document = json.loads(target.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert "buffer_tree.flush" in names
        assert "rtree.leaf_split" in names
        # The CLI turns the tracer back off after exporting.
        assert not obs.TRACE.enabled
