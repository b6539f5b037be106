"""Concurrency stress: N reader threads against a live single writer.

The differential heart of the suite: the service journals every applied
write group, and entry ``i`` of the journal is exactly the epoch-``i`` to
``i+1`` transition.  Every snapshot a reader observed is therefore
checkable after the fact — replay ``journal[:epoch]`` onto a fresh engine
and the serial release at the same k must be bit-identical.  That property
fails if a reader ever saw a tree mid-mutation (torn read), if the cache
served a pre-mutation release after its epoch went stale, or if group
coalescing reordered writes.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.serve import AnonymizerService, ServiceConfig

from .conftest import random_records

READERS = 4
KS = (5, 10, 25)
BASE_RECORDS = 1_200
WRITE_OPS = 300


def _replay_to_epoch(schema, journal, epoch: int) -> RTreeAnonymizer:
    engine = RTreeAnonymizer(Table(schema, ()), base_k=5)
    for entry in journal[:epoch]:
        assert entry[0] != "failed", f"unexpected journal entry {entry!r}"
        engine.write(entry)
    return engine


@pytest.mark.stress
def test_concurrent_readers_see_isolated_audit_clean_snapshots(schema3) -> None:
    records = random_records(BASE_RECORDS, seed=41)
    table = Table(schema3, records)
    engine = RTreeAnonymizer(table, base_k=5)
    service = AnonymizerService(engine, ServiceConfig(journal=True))
    obs.enable()
    try:
        service.load(table)
        stop = threading.Event()
        observed: list[list] = [[] for _ in range(READERS)]
        errors: list[BaseException] = []

        def reader(slot: int) -> None:
            try:
                turn = 0
                while not stop.is_set():
                    snapshot = service.release(KS[turn % len(KS)])
                    observed[slot].append(snapshot)
                    turn += 1
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()

        # The live writer: single-record submissions without waiting, so
        # the writer thread coalesces whatever runs build up while the
        # readers hold it off; FIFO order guarantees each sprinkled-in
        # delete lands after the insert it targets.
        inserted: list[Record] = []
        futures = []
        for i in range(WRITE_OPS):
            record = Record(
                100_000 + i,
                (float(7 * i % 100), float(3 * i % 100), float(11 * i % 100)),
                ("flu",),
            )
            futures.append(service.submit_insert(record))
            inserted.append(record)
            if i % 50 == 49:
                victim = inserted.pop(0)
                futures.append(service.submit_delete(victim.rid, victim.point))
        final_epoch = service.barrier()
        assert all(future.exception(timeout=60) is None for future in futures)

        # The cache must never serve a pre-mutation release after the
        # epoch bump: with the writer quiesced, every read reflects the
        # final epoch.
        settle = [service.release(k) for k in KS for _ in range(3)]
        assert all(snapshot.epoch == final_epoch for snapshot in settle)

        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"reader raised: {errors[0]!r}"
        assert obs.OBS.counter_value("serve.cache_hits") > 0

        journal = service.journal
        assert final_epoch == len(journal)
        snapshots = [s for slots in observed for s in slots] + settle
        assert all(s.k_satisfied for s in snapshots)  # every audit clean

        # Per-reader, per-recipe epochs never go backwards — a reader can
        # never be handed an older release than one it already saw.
        for slots in observed:
            latest: dict[int, int] = {}
            for snapshot in slots:
                assert snapshot.epoch >= latest.get(snapshot.k, 0)
                latest[snapshot.k] = snapshot.epoch

        # Differential check: every distinct (epoch, k) a reader observed
        # must be bit-identical to the serial replay of the journal prefix.
        # Two snapshots at the same (epoch, k) must agree before we even
        # replay (the cache can only have served one of them).
        by_state: dict[tuple[int, int], str] = {}
        for snapshot in snapshots:
            key = (snapshot.epoch, snapshot.k)
            if key in by_state:
                assert by_state[key] == snapshot.digest
            else:
                by_state[key] = snapshot.digest
        epochs = {epoch for epoch, _ in by_state}
        sampled = {min(epochs), final_epoch}
        sampled.update(epoch for epoch in epochs if epoch % 7 == 0)
        checked = 0
        for (epoch, k), digest in sorted(by_state.items()):
            if epoch not in sampled:
                continue  # sample the trail; replay cost is per-epoch
            serial = _replay_to_epoch(schema3, journal, epoch)
            assert release_digest(serial.anonymize(k)) == digest, (
                f"snapshot at epoch {epoch}, k={k} diverged from the "
                "serial replay"
            )
            checked += 1
        assert checked >= 3  # the settle phase alone pins all of KS
    finally:
        stop.set()
        service.close()
        obs.disable()
        obs.reset()


@pytest.mark.stress
def test_backpressure_bounds_the_queue_under_a_slow_writer(schema3) -> None:
    table = Table(schema3, random_records(400, seed=42))
    engine = RTreeAnonymizer(table, base_k=5)
    config = ServiceConfig(max_queue=8, max_batch=4)
    with AnonymizerService(engine, config) as service:
        service.load(table)
        futures = [
            service.submit_insert(
                Record(200_000 + i, (float(i % 90), 1.0, 2.0), ("flu",))
            )
            for i in range(64)
        ]
        assert service.queue_depth() <= config.max_queue + 1
        service.barrier()
        assert all(future.done() for future in futures)
        assert len(service) == 400 + 64


@pytest.mark.stress
def test_concurrent_distinct_recipes_share_the_cache_safely(schema3) -> None:
    table = Table(schema3, random_records(800, seed=43))
    engine = RTreeAnonymizer(table, base_k=5)
    with AnonymizerService(engine) as service:
        service.load(table)
        results: list[str] = []
        errors: list[BaseException] = []

        def reader(k: int) -> None:
            try:
                for _ in range(20):
                    results.append((k, service.release(k).digest))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(k,), daemon=True)
            for k in (5, 10, 25, 50)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # No writes happened: all reads of one k agree, and they match a
        # direct engine release.
        for k in (5, 10, 25, 50):
            digests = {digest for key, digest in results if key == k}
            assert digests == {release_digest(engine.anonymize(k))}
