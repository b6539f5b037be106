"""The observability subsystem: registry, sinks, and the built-in hooks."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.rtree import RPlusTree
from repro.obs import (
    DEFAULT_COUNTERS,
    OBS,
    TRACE,
    InMemorySink,
    JsonLinesSink,
    MetricsRegistry,
    TableSink,
    span,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile
from tests.conftest import random_records


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Tests toggle the process-wide OBS and TRACE; leave both off and empty."""
    yield
    obs.disable()
    obs.reset()
    TRACE.disable()
    TRACE.reset()


class TestRegistry:
    def test_disabled_by_default(self) -> None:
        registry = MetricsRegistry()
        assert not registry.enabled

    def test_counters_and_gauges(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("a.b")
        registry.count("a.b", 4)
        registry.gauge("level", 3.5)
        assert registry.counter_value("a.b") == 5
        assert registry.gauge_value("level") == 3.5
        assert registry.counter_value("never.touched") == 0

    def test_histogram_aggregates(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        for value in (1, 2, 3, 10):
            registry.observe("sizes", value)
        histogram = registry.histogram("sizes")
        assert histogram is not None
        assert histogram.count == 4
        assert histogram.minimum == 1
        assert histogram.maximum == 10
        assert histogram.mean == pytest.approx(4.0)

    def test_span_feeds_one_histogram_per_name(self) -> None:
        obs.enable()
        with span("outer") as outer:
            with span("inner"):
                pass
            with span("inner"):
                pass
        histograms = obs.snapshot()["histograms"]
        assert histograms["outer_seconds"]["count"] == 1
        assert histograms["outer_seconds"]["sum"] == outer.seconds
        assert histograms["inner_seconds"]["count"] == 2
        assert histograms["outer_seconds"]["sum"] >= histograms["inner_seconds"]["sum"]

    def test_disabled_span_is_noop(self) -> None:
        assert not OBS.enabled and not TRACE.enabled
        with span("anything"):
            pass
        assert OBS.histogram("anything_seconds") is None
        assert len(TRACE) == 0
        assert "spans" not in obs.snapshot()

    def test_enable_declares_default_schema(self) -> None:
        registry = MetricsRegistry()
        registry.enable()
        counters = registry.snapshot()["counters"]
        for name in DEFAULT_COUNTERS:
            assert name in counters and counters[name] == 0

    def test_reset_clears_everything(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("x")
        registry.observe("h", 1)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_render_table_mentions_collected_names(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("rtree.leaf_splits", 7)
        registry.observe("depth", 2)
        registry.observe("load_seconds", 0.5)
        rendering = registry.render_table()
        assert "rtree.leaf_splits" in rendering
        assert "depth" in rendering
        assert "load_seconds" in rendering

    def test_snapshot_is_json_serializable(self) -> None:
        registry = MetricsRegistry()
        registry.enable()
        registry.count("x", 3)
        registry.observe("h", 5)
        json.dumps(registry.snapshot("labelled"))

    def test_snapshot_carries_environment_block(self, monkeypatch) -> None:
        import platform

        from repro.obs import registry as registry_module

        registry = MetricsRegistry()
        environment = registry.snapshot()["environment"]
        assert environment["python"] == platform.python_version()
        assert environment["timestamp"]
        # git_revision may be None outside a repo, but the key must exist.
        assert "git_revision" in environment
        # The dirty flag is None exactly when the revision is (no repo).
        assert environment["git_dirty"] in (None, True, False)
        assert (environment["git_dirty"] is None) == (
            environment["git_revision"] is None
        )

        # Both are resolved once per process: later snapshots never shell out.
        def no_git(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            raise AssertionError("git was run again")

        monkeypatch.setattr(registry_module.subprocess, "run", no_git)
        again = registry.snapshot()["environment"]
        assert again["git_dirty"] == environment["git_dirty"]
        assert again["git_revision"] == environment["git_revision"]

    def test_render_table_and_table_sink_share_one_renderer(self) -> None:
        import io

        from repro.obs.render import render_snapshot

        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("x", 2)
        snapshot = registry.snapshot()
        stream = io.StringIO()
        TableSink(stream).emit(snapshot)
        assert render_snapshot(snapshot) + "\n" == stream.getvalue()


class TestQuantileSketch:
    def test_percentiles_of_known_distribution(self) -> None:
        from repro.obs.registry import Histogram

        histogram = Histogram()
        for value in range(1, 101):  # 1..100, uniform
            histogram.observe(float(value))
        # The log-bucket sketch promises ~4.4% relative error.
        assert histogram.percentile(0.5) == pytest.approx(50, rel=0.05)
        assert histogram.percentile(0.9) == pytest.approx(90, rel=0.05)
        assert histogram.percentile(0.99) == pytest.approx(99, rel=0.05)
        # Extremes clamp to the exactly tracked min/max.
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0

    def test_sub_second_latencies_resolve(self) -> None:
        from repro.obs.registry import Histogram

        histogram = Histogram()
        for value in (0.0001, 0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.percentile(0.25) == pytest.approx(0.0001, rel=0.05)
        assert histogram.percentile(1.0) == pytest.approx(0.1)

    def test_empty_histogram_is_zero(self) -> None:
        from repro.obs.registry import Histogram

        assert Histogram().percentile(0.5) == 0.0

    def test_zeros_are_tallied_not_bucketed(self) -> None:
        from repro.obs.registry import Histogram

        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(0.0)
        histogram.observe(8.0)
        assert histogram.zeros == 2
        assert histogram.percentile(0.5) == 0.0
        assert histogram.percentile(1.0) == 8.0

    def test_rejects_out_of_range_quantile(self) -> None:
        from repro.obs.registry import Histogram

        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_as_dict_carries_percentiles_and_buckets(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        for value in (1.0, 2.0, 4.0):
            registry.observe("h", value)
        h = registry.snapshot()["histograms"]["h"]
        assert {"p50", "p90", "p99"} <= h.keys()
        assert sum(h["buckets"].values()) == 3

    def test_registry_percentile_shortcut(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.observe("h", 4.0)
        assert registry.percentile("h", 0.5) == pytest.approx(4.0, rel=0.05)
        assert registry.percentile("missing", 0.5) == 0.0


class TestDeclaredMetrics:
    def test_enable_declares_gauges_and_histograms_too(self) -> None:
        from repro.obs import DEFAULT_GAUGES
        from repro.obs.registry import DEFAULT_HISTOGRAMS

        registry = MetricsRegistry()
        registry.enable()
        snapshot = registry.snapshot()
        for name in DEFAULT_GAUGES:
            assert snapshot["gauges"][name] == 0.0
        for name in DEFAULT_HISTOGRAMS:
            assert snapshot["histograms"][name]["count"] == 0

    def test_undeclared_flags_typo_names(self) -> None:
        registry = MetricsRegistry()
        registry.enable()
        registry.count("serve.cache_hits")  # declared: fine
        registry.count("serve.cache_hist")  # the typo this check exists for
        registry.gauge("serve.queue_dpeth", 1)
        registry.observe("serve.commit_secs", 0.1)
        assert registry.undeclared() == {
            "counters": ["serve.cache_hist"],
            "gauges": ["serve.queue_dpeth"],
            "histograms": ["serve.commit_secs"],
        }

    def test_reset_clears_declarations(self) -> None:
        registry = MetricsRegistry()
        registry.enable()
        registry.reset()
        registry.count("serve.cache_hits")
        assert registry.undeclared()["counters"] == ["serve.cache_hits"]


@pytest.mark.stress
class TestRegistryThreadSafety:
    def test_concurrent_counts_are_exact(self) -> None:
        """8 threads hammer one registry; nothing may tear or be lost."""
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        threads, per_thread = 8, 5_000
        start = threading.Barrier(threads)

        def hammer(index: int) -> None:
            start.wait()
            for step in range(per_thread):
                registry.count("shared")
                registry.count(f"own.{index}")
                registry.observe("latency", float(step % 7) + 0.5)
                registry.gauge("level", float(index))
                if step % 100 == 0:
                    registry.snapshot()  # concurrent reads must not tear

        workers = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter_value("shared") == threads * per_thread
        for index in range(threads):
            assert registry.counter_value(f"own.{index}") == per_thread
        histogram = registry.histogram("latency")
        assert histogram is not None
        assert histogram.count == threads * per_thread
        assert sum(histogram.buckets.values()) == threads * per_thread

    def test_concurrent_spans_keep_consistent_aggregates(self) -> None:
        obs.enable()
        TRACE.enable()
        threads, per_thread = 8, 500

        def spin() -> None:
            for _ in range(per_thread):
                with span("outer"):
                    with span("inner"):
                        pass

        workers = [threading.Thread(target=spin) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' spans often
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * per_thread
        assert OBS.histogram("outer_seconds").count == total  # type: ignore[union-attr]
        assert OBS.histogram("inner_seconds").count == total  # type: ignore[union-attr]
        # Parents are tracked per thread: however the threads interleave,
        # every inner span's parent is its own thread's outer span.
        events = TRACE.events()
        assert TRACE.dropped == 0
        assert [event.parent for event in events if event.name == "inner"] == [
            "outer"
        ] * total
        assert all(event.parent is None for event in events if event.name == "outer")


class TestRenderEdgeCases:
    def test_empty_snapshot_renders_placeholder(self) -> None:
        from repro.obs.render import render_snapshot

        assert render_snapshot({}) == "(no metrics collected)"
        assert render_snapshot({"label": "x"}) == "(no metrics collected)"

    def test_zero_count_histogram_renders_zero_min_max(self) -> None:
        from repro.obs.render import render_snapshot

        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.declare(histograms=("empty.hist",))
        rendering = render_snapshot(registry.snapshot())
        assert "empty.hist" in rendering
        assert "min=0" in rendering and "max=0" in rendering
        assert "inf" not in rendering

    def test_histogram_row_without_percentiles_still_renders(self) -> None:
        # Snapshots stored before the quantile sketch lack p50/p90/p99.
        from repro.obs.render import render_snapshot

        old = {
            "histograms": {
                "h": {"count": 1, "mean": 2.0, "min": 2.0, "max": 2.0}
            }
        }
        rendering = render_snapshot(old)
        assert "count=1" in rendering
        assert "p50" not in rendering

    def test_display_width_counts_east_asian_wide_as_two(self) -> None:
        from repro.obs.render import display_width

        assert display_width("abc") == 3
        assert display_width("データ") == 6
        assert display_width("é") == 1  # combining accent is zero-width

    def test_unicode_names_align_by_display_width(self) -> None:
        from repro.obs.render import display_width, render_snapshot

        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("データセット.rows", 1)
        registry.count("plain.rows", 2)
        lines = render_snapshot(registry.snapshot()).splitlines()
        start = lines.index("== counters ==") + 1
        rows = lines[start : start + 2]
        # The value column starts at the same *terminal cell* in each row,
        # even though the wide-character name has fewer codepoints.
        prefix_cells = {
            display_width(row[: len(row) - len(row.split()[-1])])
            for row in rows
        }
        assert len(prefix_cells) == 1


class TestSinks:
    def test_in_memory_sink(self) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("x")
        sink = InMemorySink()
        registry.emit(sink, label="first")
        registry.count("x")
        registry.emit(sink, label="second")
        assert len(sink.snapshots) == 2
        assert sink.latest["label"] == "second"
        assert sink.latest["counters"]["x"] == 2

    def test_jsonl_sink_appends_lines(self, tmp_path) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("x", 9)
        with JsonLinesSink(tmp_path / "metrics.jsonl") as sink:
            registry.emit(sink, label="a")
            registry.emit(sink, label="b")
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["label"] == "a"
        assert first["counters"]["x"] == 9

    def test_jsonl_sink_holds_one_handle_and_closes(self, tmp_path) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("x")
        sink = JsonLinesSink(tmp_path / "metrics.jsonl")
        assert not sink.closed
        registry.emit(sink)
        # Each emit is flushed, so the line is durable before close().
        assert (tmp_path / "metrics.jsonl").read_text().count("\n") == 1
        sink.close()
        assert sink.closed
        sink.close()  # idempotent

    def test_jsonl_sink_rejects_emit_after_close(self, tmp_path) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        sink = JsonLinesSink(tmp_path / "metrics.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            registry.emit(sink)

    def test_jsonl_sink_context_manager_closes(self, tmp_path) -> None:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        with JsonLinesSink(tmp_path / "metrics.jsonl") as sink:
            registry.emit(sink)
        assert sink.closed

    def test_jsonl_sink_unwritable_path_fails_at_construction(
        self, tmp_path
    ) -> None:
        # The target's parent is a *file*, so the sink cannot be opened:
        # the failure must surface when the sink is built, not on a later
        # emit deep inside an instrumented run.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            JsonLinesSink(blocker / "metrics.jsonl")

    def test_table_sink_writes_stream(self) -> None:
        import io

        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("pool.hits", 3)
        registry.observe("depth", 1)
        registry.observe("load_seconds", 0.5)
        stream = io.StringIO()
        registry.emit(TableSink(stream), label="run")
        text = stream.getvalue()
        assert "pool.hits" in text
        assert "depth" in text
        assert "load_seconds" in text
        assert "run" in text


class TestBuiltInHooks:
    def test_disabled_hooks_collect_nothing(self) -> None:
        tree = RPlusTree(dimensions=3, k=3)
        for record in random_records(100, seed=4):
            tree.insert(record)
        assert obs.snapshot()["counters"] == {}

    def test_tree_hooks(self) -> None:
        obs.enable()
        tree = RPlusTree(dimensions=3, k=3)
        records = random_records(200, seed=5)
        for record in records:
            tree.insert(record)
        tree.delete(records[0].rid, records[0].point)
        snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters["rtree.inserts"] >= 200
        assert counters["rtree.leaf_splits"] > 0
        assert counters["rtree.deletes"] == 1
        depth = snapshot["histograms"]["rtree.routing_depth"]
        assert depth["count"] >= 200
        assert depth["max"] >= 1

    def test_loader_and_storage_hooks(self) -> None:
        from repro.index.leaf_store import PagedLeafStore

        obs.enable()
        pagefile: PageFile[Record] = PageFile(page_bytes=512, record_bytes=36)
        pool: BufferPool[Record] = BufferPool(pagefile, 8 * 512)
        tree = RPlusTree(dimensions=3, k=3, leaf_store=PagedLeafStore(pool))
        loader = BufferTreeLoader(tree, pool=pool)
        consumed = loader.load(random_records(600, seed=6))
        pool.flush()
        assert consumed == 600
        counters = obs.snapshot()["counters"]
        assert counters["buffer_tree.flushes"] > 0
        assert counters["page.reads"] > 0
        assert counters["page.writes"] > 0
        assert counters["pool.hits"] + counters["pool.misses"] > 0
        # The mirrored counts agree with the pagefile's own ledger.
        assert counters["page.writes"] == pagefile.stats.writes

    def test_anonymizer_release_hooks(self, medium_table: Table) -> None:
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        obs.enable()
        release = anonymizer.anonymize(10)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["anonymizer.releases"] == 1
        assert snapshot["counters"]["anonymizer.partitions"] == len(
            release.partitions
        )
        assert snapshot["histograms"]["core.release_seconds"]["count"] == 1

    def test_bulk_load_span_nests_loader_spans(self, medium_table: Table) -> None:
        obs.enable()
        TRACE.enable()
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        parents = {event.name: event.parent for event in TRACE.events()}
        assert parents["index.load"] is None
        assert parents["buffer_tree.load"] == "index.load"
        assert parents["buffer_tree.drain"] == "buffer_tree.load"
        histograms = obs.snapshot()["histograms"]
        for name in ("index.load", "buffer_tree.load", "buffer_tree.drain"):
            assert histograms[f"{name}_seconds"]["count"] == 1


class TestOneMeasurement:
    """Every span feeds its histogram and the trace from one clock reading."""

    def test_every_emitted_name_is_declared(self, tmp_path, medium_table: Table) -> None:
        from repro import api
        from repro.dataset.io import write_table
        from repro.durability.manager import DurabilityConfig
        from repro.query.workload import random_range_workload

        path = tmp_path / "records.bin"
        write_table(medium_table, path)
        obs.enable()
        durable = api.open(
            medium_table.schema, durability=DurabilityConfig(tmp_path / "state")
        )
        durable.load(path, workers=2)
        durable.release(k=10)
        durable.checkpoint()
        durable.close()
        with api.serve(medium_table.schema) as service:
            service.load(medium_table)
            service.insert(Record(10_000, (50.0, 50.0, 50.0), ("flu",)))
            service.release(10)
            service.query(random_range_workload(medium_table, 5, seed=1), k=10)
        assert OBS.undeclared() == {"counters": [], "gauges": [], "histograms": []}

    def test_histograms_and_trace_report_one_measurement(
        self, medium_table: Table
    ) -> None:
        from repro import api
        from repro.query.workload import random_range_workload

        with api.serve(medium_table.schema) as service:
            service.load(medium_table)
            obs.enable()
            TRACE.enable()
            service.release(10)
            service.query(random_range_workload(medium_table, 20, seed=1), k=10)
        histograms = obs.snapshot()["histograms"]
        events = TRACE.events()
        for name in (
            "core.release",
            "core.group",
            "core.compact",
            "core.digest",
            "obs.audit",
            "query.engine_build",
            "query.evaluate",
        ):
            traced = [event.duration_us / 1e6 for event in events if event.name == name]
            histogram = histograms[f"{name}_seconds"]
            assert traced, name
            assert histogram["count"] == len(traced), name
            assert histogram["sum"] == pytest.approx(sum(traced), rel=1e-9), name
