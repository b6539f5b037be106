"""Live serving telemetry: endpoint, watchdog, slow-op log, dashboard."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api, obs
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, recover
from repro.obs.live import (
    DEGRADED,
    HEALTH_CODES,
    HEALTHY,
    STALLED,
    SlowOpLog,
    TelemetryConfig,
    TelemetryServer,
    WriterWatchdog,
    metric_name,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Tests toggle the process-wide OBS/TRACE; always leave them off."""
    yield
    obs.disable()
    obs.reset()
    obs.TRACE.disable()
    obs.TRACE.reset()


def _fetch(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()


class TestTelemetryConfig:
    def test_defaults_are_opt_in(self) -> None:
        config = TelemetryConfig()
        assert not config.endpoint
        assert config.slow_op_log is None

    def test_rejects_bad_sample(self) -> None:
        with pytest.raises(ValueError, match="slow_op_sample"):
            TelemetryConfig(slow_op_sample=0)

    def test_rejects_inverted_thresholds(self) -> None:
        with pytest.raises(ValueError, match="degraded_after"):
            TelemetryConfig(degraded_after=2.0, stalled_after=1.0)
        with pytest.raises(ValueError, match="degraded_after"):
            TelemetryConfig(degraded_after=0.0)


class TestWriterWatchdog:
    def test_idle_writer_is_healthy_forever(self) -> None:
        watchdog = WriterWatchdog(degraded_after=0.01, stalled_after=0.02)
        time.sleep(0.05)  # heartbeat is ancient, but nothing is pending
        assert watchdog.assess(0) == HEALTHY

    def test_pending_work_ages_into_degraded_then_stalled(self) -> None:
        watchdog = WriterWatchdog(degraded_after=0.02, stalled_after=0.06)
        assert watchdog.assess(1) == HEALTHY  # backlog just observed
        time.sleep(0.03)
        assert watchdog.assess(1) == DEGRADED
        time.sleep(0.05)
        assert watchdog.assess(1) == STALLED

    def test_beat_resets_the_clock(self) -> None:
        watchdog = WriterWatchdog(degraded_after=0.02, stalled_after=0.06)
        watchdog.assess(1)
        time.sleep(0.03)
        watchdog.beat()
        assert watchdog.assess(1) == HEALTHY

    def test_submit_to_long_idle_writer_is_not_a_stall(self) -> None:
        # The heartbeat is older than every threshold, but the backlog was
        # only just observed: health must be judged from the backlog's age.
        watchdog = WriterWatchdog(degraded_after=0.01, stalled_after=0.02)
        time.sleep(0.05)
        assert watchdog.assess(1) == HEALTHY

    def test_drain_clears_pending_age(self) -> None:
        watchdog = WriterWatchdog(degraded_after=0.02, stalled_after=0.06)
        watchdog.assess(1)
        time.sleep(0.03)
        assert watchdog.assess(0) == HEALTHY  # drained
        assert watchdog.assess(1) == HEALTHY  # new backlog starts fresh

    def test_age_tracks_beats(self) -> None:
        watchdog = WriterWatchdog()
        watchdog.beat()
        assert watchdog.age() < 0.5

    def test_rejects_bad_thresholds(self) -> None:
        with pytest.raises(ValueError):
            WriterWatchdog(degraded_after=0.0)
        with pytest.raises(ValueError):
            WriterWatchdog(degraded_after=2.0, stalled_after=1.0)


class TestSlowOpLog:
    def test_below_threshold_is_not_recorded(self, tmp_path) -> None:
        with SlowOpLog(tmp_path / "slow.jsonl", threshold=0.5) as log:
            assert not log.record("commit", 0.1)
            assert log.recorded == 0

    def test_over_threshold_entry_shape(self, tmp_path) -> None:
        path = tmp_path / "slow.jsonl"
        with SlowOpLog(path, threshold=0.1) as log:
            assert log.record("commit", 0.4, kind="insert_batch", ops=3)
        entry = json.loads(path.read_text())
        assert entry["op"] == "commit"
        assert entry["seconds"] == pytest.approx(0.4)
        assert entry["threshold"] == pytest.approx(0.1)
        assert entry["context"] == {"kind": "insert_batch", "ops": 3}
        assert "ts" in entry

    def test_sampling_keeps_every_nth(self, tmp_path) -> None:
        path = tmp_path / "slow.jsonl"
        with SlowOpLog(path, threshold=0.0, sample_every=3) as log:
            written = [log.record("op", 1.0) for _ in range(7)]
        # The first always records, then every third over-threshold op.
        assert written == [True, False, False, True, False, False, True]
        assert log.recorded == 3
        assert len(path.read_text().splitlines()) == 3

    def test_spans_attached_when_tracing(self, tmp_path) -> None:
        obs.TRACE.enable()
        with obs.span("wal.fsync"):
            pass
        path = tmp_path / "slow.jsonl"
        with SlowOpLog(path, threshold=0.0, max_spans=4) as log:
            log.record("commit", 1.0)
        entry = json.loads(path.read_text())
        assert [span["name"] for span in entry["spans"]] == ["wal.fsync"]

    def test_counts_slow_ops_when_obs_enabled(self, tmp_path) -> None:
        obs.enable()
        with SlowOpLog(tmp_path / "slow.jsonl", threshold=0.0) as log:
            log.record("release", 1.0)
        assert obs.OBS.counter_value("serve.slow_ops") == 1

    def test_rejects_bad_sampling(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="sample_every"):
            SlowOpLog(tmp_path / "slow.jsonl", sample_every=0)


class TestPrometheusText:
    def _registry_snapshot(self) -> dict[str, object]:
        registry = MetricsRegistry()
        registry.enable(declare_defaults=False)
        registry.count("serve.cache_hits", 7)
        registry.gauge("serve.queue_depth", 3)
        for value in (0.001, 0.002, 0.004, 0.4):
            registry.observe("serve.commit_seconds", value)
        return registry.snapshot()

    def test_counter_and_gauge_lines(self) -> None:
        text = prometheus_text(self._registry_snapshot())
        assert "# TYPE repro_serve_cache_hits counter" in text
        assert "repro_serve_cache_hits 7" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 3" in text
        assert text.endswith("\n")

    def test_histogram_renders_as_summary_with_quantiles(self) -> None:
        text = prometheus_text(self._registry_snapshot())
        assert "# TYPE repro_serve_commit_seconds summary" in text
        for quantile in ("0.5", "0.9", "0.99"):
            assert f'repro_serve_commit_seconds{{quantile="{quantile}"}}' in text
        assert "repro_serve_commit_seconds_count 4" in text

    def test_extra_gauges_are_merged(self) -> None:
        text = prometheus_text(
            self._registry_snapshot(), extra_gauges={"serve.health": 2}
        )
        assert "repro_serve_health 2" in text

    def test_round_trip_through_parser(self) -> None:
        snapshot = self._registry_snapshot()
        samples = parse_prometheus_text(prometheus_text(snapshot))
        assert samples[("repro_serve_cache_hits", ())] == 7
        assert samples[("repro_serve_queue_depth", ())] == 3
        p99 = samples[("repro_serve_commit_seconds", (("quantile", "0.99"),))]
        assert p99 == pytest.approx(0.4, rel=0.06)  # sketch error + clamp
        count = samples[("repro_serve_commit_seconds_count", ())]
        assert count == 4

    def test_parser_rejects_malformed_lines(self) -> None:
        with pytest.raises(ValueError):
            parse_prometheus_text("this is { not exposition format\n")

    def test_metric_name_mangling(self) -> None:
        assert metric_name("serve.telemetry.scrapes") == (
            "repro_serve_telemetry_scrapes"
        )
        assert metric_name("wal.fsync_seconds") == "repro_wal_fsync_seconds"


class TestTelemetryServer:
    def test_serves_metrics_and_health_over_http(self) -> None:
        server = TelemetryServer(
            lambda: "repro_up 1\n",
            lambda: {"status": HEALTHY, "epoch": 4},
        )
        server.start()
        try:
            host, port = server.address
            status, body = _fetch(f"http://{host}:{port}/metrics")
            assert status == 200
            assert body == b"repro_up 1\n"
            status, body = _fetch(f"http://{host}:{port}/healthz")
            assert status == 200
            assert json.loads(body) == {"status": HEALTHY, "epoch": 4}
        finally:
            server.stop()

    def test_stalled_health_is_503(self) -> None:
        server = TelemetryServer(lambda: "", lambda: {"status": STALLED})
        server.start()
        try:
            status, body = _fetch(server.url + "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == STALLED
        finally:
            server.stop()

    def test_unknown_path_is_404(self) -> None:
        server = TelemetryServer(lambda: "", lambda: {"status": HEALTHY})
        server.start()
        try:
            status, _ = _fetch(server.url + "/nope")
            assert status == 404
        finally:
            server.stop()

    def test_handler_exception_is_500_and_counted(self) -> None:
        def broken() -> str:
            raise RuntimeError("scrape me not")

        obs.enable()
        server = TelemetryServer(broken, lambda: {"status": HEALTHY})
        server.start()
        try:
            status, _ = _fetch(server.url + "/metrics")
            assert status == 500
            assert obs.OBS.counter_value("serve.telemetry.errors") == 1
        finally:
            server.stop()

    def test_stop_is_idempotent(self) -> None:
        server = TelemetryServer(lambda: "", lambda: {"status": HEALTHY})
        server.start()
        server.stop()
        server.stop()


class TestServiceTelemetry:
    """The telemetry endpoint wired through a live AnonymizerService."""

    @pytest.fixture()
    def served(self, small_table: Table):
        obs.enable()
        service = api.serve(
            small_table.schema,
            service_config=api.ServiceConfig(
                telemetry=TelemetryConfig(endpoint=True)
            ),
        )
        service.insert_batch(list(small_table.records))
        service.release(k=5)
        yield service
        service.close()

    def test_healthz_reports_queue_cache_and_epoch(self, served) -> None:
        status, body = _fetch(served.telemetry_url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == HEALTHY
        assert health["epoch"] == served.epoch
        assert health["queue_depth"] == 0
        assert health["backpressure"] == 0.0
        assert health["cache"]["misses"] >= 1
        assert 0.0 <= health["cache"]["hit_ratio"] <= 1.0

    def test_metrics_parse_and_carry_quantiles(self, served) -> None:
        status, body = _fetch(served.telemetry_url + "/metrics")
        assert status == 200
        samples = parse_prometheus_text(body.decode("utf-8"))
        assert samples[("repro_serve_epoch", ())] == served.epoch
        assert samples[("repro_serve_health", ())] == HEALTH_CODES[HEALTHY]
        for histogram in ("commit_seconds", "queue_wait_seconds"):
            for quantile in ("0.5", "0.9", "0.99"):
                key = (f"repro_serve_{histogram}", (("quantile", quantile),))
                assert key in samples

    def test_scrapes_and_health_checks_are_counted(self, served) -> None:
        before = obs.OBS.counter_value("serve.telemetry.scrapes")
        _fetch(served.telemetry_url + "/metrics")
        _fetch(served.telemetry_url + "/healthz")
        assert obs.OBS.counter_value("serve.telemetry.scrapes") == before + 1
        assert obs.OBS.counter_value("serve.telemetry.health_checks") >= 1

    def test_every_served_metric_was_declared(self, served) -> None:
        # A typo'd metric name materializes only at its emit site; after a
        # full served round-trip every collected name must be declared.
        _fetch(served.telemetry_url + "/metrics")
        undeclared = obs.OBS.undeclared()
        assert undeclared == {"counters": [], "gauges": [], "histograms": []}

    def test_no_endpoint_without_opt_in(self, small_table: Table) -> None:
        with api.serve(small_table.schema) as service:
            assert service.telemetry_url is None
            assert service.telemetry_address is None
            assert service.health()["status"] == HEALTHY

    def test_slow_op_log_records_served_operations(
        self, small_table: Table, tmp_path
    ) -> None:
        path = tmp_path / "slow.jsonl"
        with api.serve(
            small_table.schema,
            service_config=api.ServiceConfig(
                telemetry=TelemetryConfig(
                    slow_op_log=path, slow_op_threshold=0.0
                )
            ),
        ) as service:
            service.insert_batch(list(small_table.records))
            service.release(k=5)
            assert service.slow_op_log is not None
            assert service.slow_op_log.recorded >= 2  # commit + release
        ops = {json.loads(line)["op"] for line in path.read_text().splitlines()}
        assert {"commit", "release"} <= ops

    def test_telemetry_failure_never_strands_a_writer(
        self, small_table: Table, tmp_path, capsys
    ) -> None:
        path = tmp_path / "slow.jsonl"
        with api.serve(
            small_table.schema,
            service_config=api.ServiceConfig(
                telemetry=TelemetryConfig(
                    slow_op_log=path, slow_op_threshold=0.0
                )
            ),
        ) as service:
            service.slow_op_log.close()  # sabotage: sink dies mid-serve
            service.insert_batch(list(small_table.records))  # must not hang
            service.release(k=5)
            assert service.health()["status"] == HEALTHY
        assert "slow-op log failed" in capsys.readouterr().err


def _live_writers() -> int:
    return sum(
        thread.name == "repro-serve-writer" and thread.is_alive()
        for thread in threading.enumerate()
    )


class TestUnbindableEndpoint:
    def test_service_leaks_no_writer_and_no_wal(
        self, small_table: Table, tmp_path
    ) -> None:
        """A taken telemetry port fails the service before its writer
        starts, and closes the slow-op log and the engine's WAL."""
        directory = tmp_path / "state"
        writers = _live_writers()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = api.ServiceConfig(
                telemetry=TelemetryConfig(
                    endpoint=True,
                    port=taken.getsockname()[1],
                    slow_op_log=tmp_path / "slow.jsonl",
                )
            )
            with pytest.raises(OSError):
                api.serve(
                    small_table,
                    durability=DurabilityConfig(directory),
                    service_config=config,
                )
        assert _live_writers() == writers
        with recover(directory).anonymizer as recovered:
            assert len(recovered) == 0


class TestStalledWatchdog:
    def test_frozen_writer_flips_health_to_stalled(
        self, small_table: Table
    ) -> None:
        """Fault injection: freeze the writer mid-apply, watch health decay."""
        service = api.serve(
            small_table.schema,
            service_config=api.ServiceConfig(
                telemetry=TelemetryConfig(
                    endpoint=True, degraded_after=0.05, stalled_after=0.15
                )
            ),
        )
        frozen = threading.Event()
        release_writer = threading.Event()
        original = service.engine.write

        def freezing_write(ops):
            frozen.set()
            release_writer.wait(timeout=10)
            return original(ops)

        service.engine.write = freezing_write
        try:
            future = service.submit_insert_batch(list(small_table.records))
            assert frozen.wait(timeout=5)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if service.health()["status"] == STALLED:
                    break
                time.sleep(0.02)
            assert service.health()["status"] == STALLED
            status, body = _fetch(service.telemetry_url + "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == STALLED
        finally:
            release_writer.set()
        future.result(timeout=10)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if service.health()["status"] == HEALTHY:
                break
            time.sleep(0.02)
        assert service.health()["status"] == HEALTHY  # recovered after thaw
        service.close()
