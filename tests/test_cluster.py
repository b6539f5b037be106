"""Unit tests for the sharded serving cluster (repro.cluster).

Covers the wire framing, the uniform shard planner, the ServiceProtocol
surface, key routing (including cross-shard updates), configuration
validation through ``repro.api``, fault surfacing when a shard worker is
killed, router-side query answering, and the shard-labeled metrics
exposition.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro import api
from repro.cluster import (
    ClusterConfig,
    EndOfStream,
    FrameError,
    ShardedCluster,
    recv_frame,
    send_frame,
)
from repro.cluster import router as router_module
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.obs.live import parse_prometheus_text, prometheus_cluster_text
from repro.obs.render import render_live
from repro.parallel.planner import plan_uniform
from repro.query import RangeQuery, count_anonymized
from repro.serve import (
    AnonymizerService,
    ServiceClosedError,
    ServiceConfig,
    ServiceProtocol,
)

from .conftest import random_records


# -- wire protocol -----------------------------------------------------------


def test_frame_roundtrip() -> None:
    left, right = socket.socketpair()
    try:
        payload = (7, "insert_batch", ((1, (2.0, 3.0)),))
        send_frame(left, payload)
        assert recv_frame(right) == payload
    finally:
        left.close()
        right.close()


def test_recv_frame_end_of_stream_on_closed_peer() -> None:
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(EndOfStream):
            recv_frame(right)
    finally:
        right.close()


def test_recv_frame_rejects_corrupt_length() -> None:
    left, right = socket.socketpair()
    try:
        left.sendall(b"\xff\xff\xff\xff")  # claims a 4 GiB frame
        with pytest.raises(FrameError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# -- planner -----------------------------------------------------------------


def test_plan_uniform_covers_key_space_evenly() -> None:
    lows, highs = (0.0, 0.0), (100.0, 100.0)
    plan = plan_uniform(4, lows, highs, DEFAULT_HILBERT_BITS)
    assert len(plan.boundaries) == 3
    total = 1 << (DEFAULT_HILBERT_BITS * 2)
    assert plan.boundaries == (total // 4, total // 2, 3 * total // 4)
    assert plan.shard_of(0) == 0
    assert plan.shard_of(total - 1) == 3


def test_plan_uniform_single_shard_and_validation() -> None:
    plan = plan_uniform(1, (0.0,), (1.0,), 4)
    assert plan.boundaries == ()
    with pytest.raises(ValueError):
        plan_uniform(0, (0.0,), (1.0,), 4)


# -- configuration -----------------------------------------------------------


def test_cluster_config_validation() -> None:
    with pytest.raises(ValueError):
        ClusterConfig(shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(request_timeout=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(max_pending=0)


def test_configs_are_keyword_only() -> None:
    with pytest.raises(TypeError):
        ClusterConfig(2)  # type: ignore[misc]
    with pytest.raises(TypeError):
        ServiceConfig(1024)  # type: ignore[misc]


def test_api_open_rejects_engine_knobs_for_cluster(schema3) -> None:
    with pytest.raises(ValueError, match="serve=True"):
        api.open(schema3, shards=2)
    with pytest.raises(ValueError, match="disagrees"):
        api.serve(schema3, shards=3, cluster_config=ClusterConfig(shards=2))
    with pytest.raises(ValueError, match="leaf_capacity"):
        api.serve(schema3, shards=2, leaf_capacity=8)
    with pytest.raises(ValueError, match="cluster_config.service"):
        api.serve(
            schema3,
            shards=2,
            service_config=ServiceConfig(),
            cluster_config=ClusterConfig(shards=2),
        )


# -- protocol surface --------------------------------------------------------


def test_both_backends_satisfy_service_protocol(schema3) -> None:
    service = api.serve(schema3)
    cluster = api.serve(schema3, shards=2)
    try:
        assert isinstance(service, AnonymizerService)
        assert isinstance(cluster, ShardedCluster)
        assert isinstance(service, ServiceProtocol)
        assert isinstance(cluster, ServiceProtocol)
    finally:
        service.close()
        cluster.close()


# -- routing and serving -----------------------------------------------------


def test_cluster_routes_serves_and_aggregates(schema3) -> None:
    records = random_records(360, seed=11)
    table = Table(schema3, records)
    with ShardedCluster(table, ClusterConfig(shards=3)) as cluster:
        assert cluster.shard_count == 3
        assert cluster.insert_batch(table) == len(records)
        assert len(cluster) == len(records)
        # Every record is owned by the shard its key falls in.
        owners = {cluster.shard_of(record.point) for record in records}
        assert owners == {0, 1, 2}
        epoch_before = cluster.epoch
        snapshot = cluster.release(5)
        assert snapshot.k_satisfied
        assert snapshot.epoch == epoch_before
        assert cluster.release(5) is snapshot  # cached, epoch unchanged
        removed = cluster.delete(records[0].rid, records[0].point)
        assert removed.rid == records[0].rid
        assert cluster.epoch > epoch_before
        fresh = cluster.release(5)
        assert fresh is not snapshot
        assert fresh.digest != snapshot.digest
        health = cluster.health()
        assert health["status"] == "healthy"
        assert health["shard_count"] == 3
        assert len(health["shards"]) == 3


def test_cross_shard_update_moves_record(schema3) -> None:
    records = random_records(240, seed=13)
    table = Table(schema3, records)
    with ShardedCluster(table, ClusterConfig(shards=2)) as cluster:
        cluster.insert_batch(table)
        moved = None
        for record in records:
            target = Record(record.rid, (100.0, 100.0, 100.0), record.sensitive)
            if cluster.shard_of(record.point) != cluster.shard_of(target.point):
                moved = (record, target)
                break
        assert moved is not None, "no cross-shard pair in the sample"
        old_record, new_record = moved
        replaced = cluster.update(old_record.rid, old_record.point, new_record)
        assert replaced.rid == old_record.rid
        assert len(cluster) == len(records)
        assert cluster.release(5).k_satisfied


def test_cluster_release_validates_arguments(schema3) -> None:
    table = Table(schema3, random_records(120, seed=17))
    with ShardedCluster(table, ClusterConfig(shards=2)) as cluster:
        cluster.insert_batch(table)
        with pytest.raises(ValueError, match="hilbert"):
            cluster.release(5, strategy="subtree")
        with pytest.raises(ValueError, match="constraint"):
            cluster.release(5, constraint=lambda records: True)
        with pytest.raises(ValueError, match="compacted"):
            cluster.release(5, compacted=False)
        with pytest.raises(ValueError, match="base k"):
            cluster.release(2)


# -- fault surfacing ---------------------------------------------------------


def test_killed_shard_surfaces_closed_error_not_hang(schema3) -> None:
    records = random_records(240, seed=19)
    table = Table(schema3, records)
    cluster = ShardedCluster(
        table, ClusterConfig(shards=2, request_timeout=10.0)
    )
    try:
        cluster.insert_batch(table)
        assert cluster.release(5).k_satisfied
        os.kill(cluster.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.2)
        started = time.monotonic()
        with pytest.raises(ServiceClosedError):
            cluster.release(5)
        # Death is detected via the closed socket, far below the timeout.
        assert time.monotonic() - started < 5.0
        assert cluster.dead_shards == [0]
        assert cluster.health()["status"] == "stalled"
        # Writes routed to the dead shard fail fast too.
        dead_owned = next(
            record for record in records if cluster.shard_of(record.point) == 0
        )
        with pytest.raises(ServiceClosedError):
            cluster.insert(
                Record(10_000, dead_owned.point, dead_owned.sensitive)
            )
        # The metrics endpoint still answers from the surviving shards.
        assert "repro_cluster_dead_shards 1" in cluster.metrics_text()
    finally:
        cluster.close()


def test_cluster_query_answers_at_router_and_fails_on_dead_shard(
    schema3, monkeypatch
) -> None:
    """Queries are answered from the release the router assembled: the
    only per-shard ops are that release's epoch probe and, on a cache
    miss, its ``collect``.  With a shard killed the router still holds
    the old release, but it must refuse to answer from it."""
    table = Table(schema3, random_records(240, seed=29))
    cluster = ShardedCluster(table, ClusterConfig(shards=2, request_timeout=10.0))
    ops: list[str] = []
    submit = router_module._ShardHandle.submit

    def recording(handle, op, args, timeout=None):  # noqa: ANN001, ANN202
        ops.append(op)
        return submit(handle, op, args, timeout)

    try:
        cluster.insert_batch(table)
        monkeypatch.setattr(router_module._ShardHandle, "submit", recording)
        queries = [
            RangeQuery(Box((0.0, 0.0, 0.0), (50.0, 60.0, 70.0))),
            RangeQuery(Box((20.0, 0.0, 40.0), (20.0, 100.0, 40.0))),
        ]
        answered = cluster.query(queries, k=5)
        assert sorted(set(ops)) == ["collect", "epoch"]
        ops.clear()
        distinct = cluster.query(queries, k=5, kind="distinct")
        assert ops == ["epoch", "epoch"]  # cached release: the probe alone
        release = cluster.release(5).table
        assert list(answered.values) == [
            count_anonymized(query, release) for query in queries
        ]
        assert list(distinct.values) == [
            sum(1 for p in release.partitions if p.box.intersects(query.box))
            for query in queries
        ]
        with pytest.raises(ValueError, match="dimensions"):
            cluster.query(RangeQuery(Box((0.0,), (100.0,))), k=5)
        os.kill(cluster.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ServiceClosedError):
            cluster.query(queries, k=5)
        with pytest.raises(ServiceClosedError):
            cluster.query(queries, k=5, kind="distinct")
    finally:
        cluster.close()


def test_closed_cluster_raises_everywhere(schema3) -> None:
    table = Table(schema3, random_records(120, seed=23))
    cluster = ShardedCluster(table, ClusterConfig(shards=2))
    cluster.insert_batch(table)
    cluster.close()
    cluster.close()  # idempotent
    with pytest.raises(ServiceClosedError):
        cluster.release(5)
    with pytest.raises(ServiceClosedError):
        cluster.submit_insert(table.records[0])
    with pytest.raises(ServiceClosedError):
        cluster.barrier()


# -- metrics exposition ------------------------------------------------------


def test_prometheus_cluster_text_labels_and_parses() -> None:
    parent = {"counters": {"cluster.releases": 3}, "gauges": {}, "histograms": {}}
    shard = {
        "counters": {"serve.write_groups": 5},
        "gauges": {"serve.epoch": 5.0},
        "histograms": {
            "serve.commit_seconds": {
                "p50": 0.1, "p90": 0.2, "p99": 0.3, "sum": 1.0, "count": 5
            }
        },
    }
    text = prometheus_cluster_text(
        parent,
        [({"shard": "0"}, shard), ({"shard": "1"}, shard)],
        {"cluster.epoch": 10.0},
    )
    assert text.count("# TYPE repro_serve_write_groups counter") == 1
    samples = parse_prometheus_text(text)
    assert samples[("repro_cluster_releases", ())] == 3.0
    assert samples[("repro_cluster_epoch", ())] == 10.0
    assert samples[("repro_serve_write_groups", (("shard", "0"),))] == 5.0
    assert samples[("repro_serve_write_groups", (("shard", "1"),))] == 5.0
    quantile = (("quantile", "0.5"), ("shard", "1"))
    assert samples[("repro_serve_commit_seconds", quantile)] == 0.1
    rendered = render_live({"status": "healthy"}, samples)
    assert "== shard 0 ==" in rendered
    assert "[shard 1]" in rendered


def test_live_cluster_metrics_roundtrip(schema3) -> None:
    table = Table(schema3, random_records(200, seed=29))
    with ShardedCluster(table, ClusterConfig(shards=2)) as cluster:
        cluster.insert_batch(table)
        cluster.release(5)
        samples = parse_prometheus_text(cluster.metrics_text())
        assert samples[("repro_cluster_shards", ())] == 2.0
        shard_labels = {
            dict(labels).get("shard")
            for (_, labels) in samples
            if any(key == "shard" for key, _ in labels)
        }
        assert shard_labels == {"0", "1"}
