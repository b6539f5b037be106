"""Unit tests for the serving layer: cache, queue, and service semantics."""

from __future__ import annotations

import dataclasses
import queue as stdlib_queue
import random

import pytest

from repro import api, obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import Release, release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, recover
from repro.geometry.box import Box
from repro.query.engine import QueryEngine
from repro.query.ranges import RangeQuery, count_anonymized
from repro.serve import (
    AnonymizerService,
    ReleaseCache,
    ServiceClosedError,
    ServiceConfig,
    WriteOp,
    WriteQueue,
)
from repro.serve import service as service_module
from repro.serve.cache import MAX_ENTRIES

from .conftest import random_records


def _snapshot(epoch: int, k: int = 10) -> Release:
    from repro.core.partition import AnonymizedTable, Partition
    from repro.dataset.schema import Attribute, Schema
    from repro.geometry.box import Box

    schema = Schema((Attribute.numeric("a", 0, 100),))
    records = tuple(Record(rid, (float(rid),), ()) for rid in range(k))
    partition = Partition(records, Box((0.0,), (float(k),)))
    return Release(
        table=AnonymizedTable(schema, (partition,)),
        audit={"k_satisfied": True},
        digest=f"digest-{epoch}",
        k=k,
        strategy="subtree",
        epoch=epoch,
    )


class TestReleaseCache:
    def test_hit_requires_matching_epoch(self) -> None:
        cache = ReleaseCache()
        key = (10, "subtree", True, None)
        cache.put(key, _snapshot(epoch=3))
        assert cache.get(key, 3) is not None
        assert cache.stats.hits == 1

    def test_stale_epoch_is_dropped_lazily(self) -> None:
        cache = ReleaseCache()
        key = (10, "subtree", True, None)
        cache.put(key, _snapshot(epoch=3))
        assert cache.get(key, 4) is None  # a write bumped the epoch
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # dropped on the spot, not just skipped

    def test_unknown_key_is_a_miss(self) -> None:
        cache = ReleaseCache()
        assert cache.get((10, "subtree", True, None), 0) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_distinct_recipes_do_not_collide(self) -> None:
        cache = ReleaseCache()
        cache.put((10, "subtree", True, None), _snapshot(1, k=10))
        cache.put((25, "subtree", True, None), _snapshot(1, k=25))
        first = cache.get((10, "subtree", True, None), 1)
        second = cache.get((25, "subtree", True, None), 1)
        assert first is not None and first.k == 10
        assert second is not None and second.k == 25

    def test_put_sweeps_stale_entries_of_never_reused_keys(self) -> None:
        """Regression: churned constraint identities used to pin dead
        snapshots forever — lazy invalidation only fired when the exact
        key was looked up again."""
        cache = ReleaseCache()
        for epoch in range(1, 51):
            constraint = object()  # a fresh identity every release
            cache.put((10, "subtree", True, constraint), _snapshot(epoch=epoch))
        assert len(cache) == 1  # only the newest-epoch entry survives
        assert cache.stats.invalidations == 49

    def test_put_keeps_same_epoch_siblings(self) -> None:
        cache = ReleaseCache()
        cache.put((10, "subtree", True, None), _snapshot(1, k=10))
        cache.put((25, "subtree", True, None), _snapshot(1, k=25))
        assert len(cache) == 2  # same epoch: both recipes stay live

    def test_max_entries_bounds_same_epoch_keys(self) -> None:
        cache = ReleaseCache()
        newest = 10 + MAX_ENTRIES + 5
        for k in range(10, newest + 1):
            cache.put((k, "subtree", True, None), _snapshot(1, k=k))
        assert len(cache) == MAX_ENTRIES
        assert cache.get((newest, "subtree", True, None), 1) is not None
        assert cache.get((10, "subtree", True, None), 1) is None

    def test_peek_counts_and_drops_nothing(self) -> None:
        cache = ReleaseCache()
        key = (10, "subtree", True, None)
        cache.put(key, _snapshot(epoch=3))
        assert cache.peek(key, 3) is not None
        assert cache.peek(key, 4) is None
        assert cache.peek((25, "subtree", True, None), 3) is None
        assert dataclasses.astuple(cache.stats) == (0, 0, 0)
        assert len(cache) == 1


class TestWriteQueue:
    def test_consecutive_inserts_coalesce_into_one_group(self) -> None:
        q = WriteQueue(maxsize=16)
        for i in range(5):
            q.put(WriteOp("insert", (i,)))
        group = q.take_group(max_batch=8)
        assert group is not None and len(group) == 5

    def test_non_insert_breaks_the_group_without_reordering(self) -> None:
        q = WriteQueue(maxsize=16)
        q.put(WriteOp("insert", (1,)))
        q.put(WriteOp("insert", (2,)))
        q.put(WriteOp("delete", (3, (0.0,))))
        q.put(WriteOp("insert", (4,)))
        first = q.take_group(max_batch=8)
        second = q.take_group(max_batch=8)
        third = q.take_group(max_batch=8)
        assert [op.kind for op in first] == ["insert", "insert"]
        assert [op.kind for op in second] == ["delete"]
        assert [op.kind for op in third] == ["insert"]

    def test_max_batch_caps_a_group(self) -> None:
        q = WriteQueue(maxsize=32)
        for i in range(10):
            q.put(WriteOp("insert", (i,)))
        group = q.take_group(max_batch=4)
        assert group is not None and len(group) == 4

    def test_full_queue_raises_on_timeout(self) -> None:
        q = WriteQueue(maxsize=1)
        q.put(WriteOp("insert", (1,)))
        with pytest.raises(stdlib_queue.Full):
            q.put(WriteOp("insert", (2,)), timeout=0.01)

    def test_stop_sentinel_ends_the_stream(self) -> None:
        q = WriteQueue(maxsize=4)
        q.put_stop()
        assert q.take_group(max_batch=4) is None


@pytest.fixture
def metered():
    """The process-wide metrics registry, enabled and empty for one test."""
    obs.enable()
    yield obs.OBS
    obs.disable()
    obs.reset()


@pytest.fixture
def service(schema3) -> AnonymizerService:
    table = Table(schema3, random_records(600, seed=7))
    engine = RTreeAnonymizer(table, base_k=5)
    service = AnonymizerService(engine, ServiceConfig(journal=True))
    service.load(table)
    yield service
    service.close()


class TestAnonymizerService:
    def test_repeated_release_serves_the_cached_snapshot(self, service) -> None:
        first = service.release(10)
        second = service.release(10)
        assert second is first  # the very same immutable object
        assert service.cache.stats.hits == 1

    def test_mutation_invalidates_cached_releases(self, service) -> None:
        before = service.release(10)
        service.insert(Record(10_000, (1.0, 2.0, 3.0), ("flu",)))
        after = service.release(10)
        assert after is not before
        assert after.epoch > before.epoch
        assert after.record_count == before.record_count + 1

    def test_cleared_cache_recomputes_the_read(self, service) -> None:
        first = service.release(10)
        service.cache.clear()
        second = service.release(10)
        assert second is not first
        assert second.digest == first.digest  # same data, same release
        assert service.cache.stats.hits == 0

    def test_each_read_counts_one_hit_or_miss(self, service, metered) -> None:
        """Regression: the recheck under the write lock counted a second
        miss, so two misses and a hit read as (1, 4) and ``/healthz``
        reported a hit ratio of 0.2."""
        service.release(10)
        service.release(25)
        service.release(10)
        stats = service.cache.stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert metered.counter_value("serve.cache_hits") == 1
        assert metered.counter_value("serve.cache_misses") == 2
        assert service.health()["cache"]["hit_ratio"] == pytest.approx(1 / 3)

    def test_refused_recipes_count_no_read(self, service, metered) -> None:
        """Regression: an unknown strategy or a k below the base k counted a
        cache miss (and took the write lock) before the engine refused it,
        so two good reads and two refused ones read as (1, 3) and
        ``/healthz`` reported a hit ratio of 0.25."""
        service.release(10)
        service.release(10)
        everything = RangeQuery(Box((0.0,) * 3, (1e9,) * 3))
        for k, strategy in ((10, "zigzag"), (10, "hilbert"), (3, "subtree")):
            with pytest.raises(ValueError):
                service.release(k, strategy=strategy)
            with pytest.raises(ValueError):
                service.query(everything, k=k, strategy=strategy)
        stats = service.cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert metered.counter_value("serve.cache_hits") == 1
        assert metered.counter_value("serve.cache_misses") == 1
        assert service.health()["cache"]["hit_ratio"] == pytest.approx(0.5)

    def test_each_cached_release_carries_one_engine(
        self, service, metered, monkeypatch
    ) -> None:
        """The read path's contract, over insert groups and two k values.

        Every release miss builds one query engine, every hit answers from
        the engine built for that very ``Release``, and every answer
        equals the scalar oracle over the cached release it names.
        """
        built: list[QueryEngine] = []
        used: list[QueryEngine] = []

        class RecordingEngine(QueryEngine):
            def __init__(self, table) -> None:
                super().__init__(table)
                built.append(self)

            def evaluate(self, queries, kind="count"):
                used.append(self)
                return super().evaluate(queries, kind)

        monkeypatch.setattr(service_module, "QueryEngine", RecordingEngine)
        rng = random.Random(5)
        answered: list[Release] = []  # keeps every release alive
        rid = 100_000
        for _ in range(4):
            service.insert_batch(
                [Record(rid + i, (float(i), 50.0, 50.0), ("flu",)) for i in range(20)]
            )
            rid += 20
            for _ in range(3):
                for k in (10, 25):
                    queries = []
                    for _ in range(8):
                        lows = [rng.uniform(0, 60) for _ in range(3)]
                        highs = [low + rng.uniform(0, 40) for low in lows]
                        queries.append(RangeQuery(Box(tuple(lows), tuple(highs))))
                    result = service.query(queries, k=k)
                    release = service.cache.get((k, "subtree", True, None), result.epoch)
                    assert release is not None and release.digest == result.digest
                    assert used[-1].table is release.table
                    assert sum(engine.table is release.table for engine in built) == 1
                    assert list(result.values) == [
                        count_anonymized(query, release.table) for query in queries
                    ]
                    answered.append(release)
        misses = metered.counter_value("serve.cache_misses")
        assert misses == 8  # the first read per k after each insert group
        assert metered.counter_value("query.engine_builds") == misses == len(built)
        assert metered.counter_value("query.engine_cache_hits") == 24 - misses
        assert len({id(release) for release in answered}) == misses

    def test_blocking_writes_return_results(self, service) -> None:
        count = len(service)
        record = Record(20_000, (5.0, 6.0, 7.0), ("flu",))
        service.insert(record)
        assert len(service) == count + 1
        removed = service.delete(record.rid, record.point)
        assert removed.rid == record.rid
        assert len(service) == count

    def test_update_moves_a_record(self, service) -> None:
        record = Record(30_000, (1.0, 1.0, 1.0), ("flu",))
        service.insert(record)
        moved = Record(record.rid, (90.0, 90.0, 90.0), record.sensitive)
        replaced = service.update(record.rid, record.point, moved)
        assert replaced.point == record.point
        service.delete(record.rid, moved.point)  # it lives at the new point

    def test_barrier_waits_for_queued_writes(self, service) -> None:
        count = len(service)
        futures = [
            service.submit_insert(
                Record(40_000 + i, (float(i % 90), 3.0, 4.0), ("flu",))
            )
            for i in range(50)
        ]
        service.barrier()
        assert all(future.done() for future in futures)
        assert len(service) == count + 50

    def test_failed_write_resolves_the_future_with_the_error(self, service) -> None:
        future = service.submit_delete(999_999, (0.0, 0.0, 0.0))
        with pytest.raises(KeyError):
            future.result(timeout=10)

    def test_failed_write_goes_stale_rather_than_serve_cached(self, service) -> None:
        before = service.release(10)
        with pytest.raises(KeyError):
            service.delete(999_999, (0.0, 0.0, 0.0))
        after = service.release(10)
        assert after is not before  # epoch bumped even though the op failed
        assert after.digest == before.digest

    def test_closed_service_rejects_reads_and_writes(self, schema3) -> None:
        table = Table(schema3, random_records(100, seed=9))
        service = AnonymizerService(RTreeAnonymizer(table, base_k=5))
        service.load(table)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            service.release(10)
        with pytest.raises(ServiceClosedError):
            service.submit_insert(Record(1, (1.0, 2.0, 3.0), ("flu",)))

    def test_close_applies_writes_submitted_before_it(self, schema3) -> None:
        table = Table(schema3, random_records(100, seed=10))
        service = AnonymizerService(RTreeAnonymizer(table, base_k=5))
        service.load(table)
        futures = [
            service.submit_insert(
                Record(50_000 + i, (float(i), 2.0, 3.0), ("flu",))
            )
            for i in range(20)
        ]
        service.close()
        assert all(future.done() for future in futures)
        assert len(service) == 120

    def test_journal_replay_reproduces_the_release(self, schema3) -> None:
        records = random_records(400, seed=11)
        table = Table(schema3, records)
        engine = RTreeAnonymizer(table, base_k=5)
        with AnonymizerService(engine, ServiceConfig(journal=True)) as service:
            service.load(table)
            for i in range(30):
                service.insert(
                    Record(60_000 + i, (float(3 * i % 100), 4.0, 5.0), ("flu",))
                )
            victim = records[17]
            service.delete(victim.rid, victim.point)
            service.barrier()
            digest = service.release(10).digest
            journal = service.journal
        replayed = _replay(Table(schema3, ()), journal)
        assert release_digest(replayed.anonymize(10)) == digest

    def test_journal_requires_opt_in(self, schema3) -> None:
        table = Table(schema3, random_records(50, seed=12))
        with AnonymizerService(RTreeAnonymizer(table, base_k=5)) as service:
            with pytest.raises(ValueError, match="journal"):
                service.journal


class TestServiceDurability:
    def test_queued_writes_are_logged_and_recoverable(self, schema3, tmp_path) -> None:
        table = Table(schema3, random_records(300, seed=13))
        engine = RTreeAnonymizer(
            table, base_k=5, durability=DurabilityConfig(tmp_path / "state")
        )
        with AnonymizerService(engine) as service:
            service.load(table)
            service.checkpoint()
            for i in range(40):
                service.insert(
                    Record(70_000 + i, (float(2 * i % 100), 8.0, 9.0), ("flu",))
                )
            service.barrier()
            digest = service.release(10).digest
        outcome = recover(tmp_path / "state")
        recovered = release_digest(outcome.anonymizer.anonymize(10))
        outcome.anonymizer.close()
        assert recovered == digest

    def test_checkpoint_between_queued_groups_recovers_live_digest(
        self, schema3, tmp_path
    ) -> None:
        """Checkpoints taken while the writer applies queued batches.

        Each checkpoint waits for the write lock, so it lands between two
        write groups; recovery from the last one plus the WAL tail must
        publish exactly the live release.
        """
        directory = tmp_path / "state"
        records = random_records(1_500, seed=16)
        base = Table(schema3, tuple(records[:300]))
        engine = RTreeAnonymizer(
            base, base_k=5, durability=DurabilityConfig(directory)
        )
        with AnonymizerService(engine, ServiceConfig(max_batch=4)) as service:
            service.load(base)
            futures = []
            checkpoints = []
            for start in range(300, 1_500, 20):
                futures.append(
                    service.submit_insert_batch(records[start : start + 20])
                )
                if start % 300 == 0:
                    checkpoints.append(service.checkpoint())
            for future in futures:
                future.result()
            assert all(c.directory == directory for c in checkpoints)
            lsns = [c.lsn for c in checkpoints]
            assert lsns == sorted(lsns)
            live = service.release(10)
        assert live.record_count == 1_500
        with api.recover(directory) as recovered:
            assert recovered.recovery.snapshot_lsn == lsns[-1]
            assert len(recovered) == 1_500
            assert recovered.release(10).digest == live.digest

    def test_checkpoint_without_durability_raises(self, schema3) -> None:
        with api.serve(schema3, base_k=5) as service:
            with pytest.raises(ValueError, match="no durability"):
                service.checkpoint()


class TestServiceConfig:
    @pytest.mark.parametrize("field", ["max_queue", "max_batch"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_bounds_rejected_at_construction(
        self, field: str, value: int
    ) -> None:
        """A zero ``max_batch`` used to be accepted and silently turn off
        group commit; a zero ``max_queue`` failed only later, inside the
        service, naming internal parameters."""
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_settable_fields(self) -> None:
        names = [field.name for field in dataclasses.fields(ServiceConfig)]
        assert names == ["max_queue", "max_batch", "journal", "telemetry"]

    def test_keyword_only(self) -> None:
        with pytest.raises(TypeError):
            ServiceConfig(1024)  # type: ignore[misc]


class TestApiFacade:
    def test_open_serve_returns_a_service(self, schema3) -> None:
        table = Table(schema3, random_records(200, seed=14))
        with api.open(table, base_k=5, serve=True) as service:
            assert isinstance(service, AnonymizerService)
            service.load(table)
            snapshot = service.release(10)
            assert snapshot.k_satisfied
            assert snapshot.record_count == 200

    def test_serve_shorthand(self, schema3) -> None:
        table = Table(schema3, random_records(150, seed=15))
        with api.serve(
            table, base_k=5, service_config=ServiceConfig(max_batch=8)
        ) as service:
            assert service.config.max_batch == 8
            service.load(table)
            assert service.release(10).record_count == 150

    def test_service_config_without_serve_is_rejected(self, schema3) -> None:
        with pytest.raises(ValueError, match="serve=True"):
            api.open(
                Table(schema3, ()), service_config=ServiceConfig()
            )


def _replay(empty_table: Table, journal) -> RTreeAnonymizer:
    """Apply a service journal to a fresh engine (the differential oracle)."""
    engine = RTreeAnonymizer(empty_table, base_k=5)
    for entry in journal:
        kind = entry[0]
        if kind == "bulk_load":
            engine.bulk_load(entry[1])
        elif kind == "bulk_load_file":
            engine.bulk_load_file(
                entry[1], batch_size=entry[2], first_rid=entry[3], workers=entry[4]
            )
        elif kind == "insert_batch":
            engine.insert_batch(entry[1])
        elif kind == "delete":
            engine.delete(entry[1], entry[2])
        elif kind == "update":
            engine.update(entry[1], entry[2], entry[3])
        elif kind != "failed":
            raise AssertionError(f"unknown journal entry {kind!r}")
    return engine
