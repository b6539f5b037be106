"""The three benchmark workloads: one client, closed loop, fixed schedule.

Each workload builds its inputs from the seed, times its set-up several
times, runs a fixed number of scheduled operations through the public
surfaces (``repro.api.open``/``load``/``release`` and ``repro.api.serve``
-> ``AnonymizerService``), timing every call from outside, and then
checks the outputs.  The schedule length is ``seconds`` times a nominal
rate fixed in this file, so the final state (counts, digests,
``ncp_per_record``) depends only on the seed and ``seconds``, never on
how fast the machine is.

* ``bulk_anonymize`` -- the ``repro anonymize`` path: each round opens a
  fresh handle, loads a 10^5-record Agrawal file with ``workers=1`` and
  releases at k = 10, 25 and 100.
* ``serve_publish`` -- a durable service over 5x10^4 Lands End records;
  each step writes 200 inserts, 20 deletes and 20 updates, waits for
  every acknowledgement, then publishes ``release(k=10)``.
* ``query_serve`` -- an in-memory service over 5x10^4 Lands End records;
  each step answers one batch of 20 section 5.4 COUNT queries, alternating
  k = 10 and k = 25, and every 50th step first inserts 50 records.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import SpanRecorder, instrument

#: How many times each run builds its starting state; setup_s is the median.
SETUP_REPEATS = 3

BULK_RECORDS = 100_000
BULK_KS = (10, 25, 100)
BULK_BASE_K = 5
#: Nominal seconds per bulk round; sizes the fixed round count.
BULK_ROUND_SECONDS = 7.0

SERVE_BASE_RECORDS = 50_000
#: The Lands End generator's own seed fixes the market it models (zipcode
#: clusters, style prices), so every run samples the same distribution;
#: the run's seed picks which records are drawn from it (stream offsets).
LANDSEND_MARKET = 0
#: Stream offsets per run seed: offset 0 of a run is its base table,
#: later offsets are its insert batches and update points.
STREAMS_PER_SEED = 100_000
PUBLISH_K = 10
PUBLISH_INSERTS = 200
PUBLISH_DELETES = 20
PUBLISH_UPDATES = 20
#: Nominal write-then-publish steps per second; sizes the step count.
PUBLISH_STEPS_PER_SECOND = 3.0

QUERY_KS = (10, 25)
QUERY_RANGES = 12
QUERY_SINGLE_ATTRIBUTE = 4
QUERY_POINTS = 4
QUERY_WRITE_EVERY = 50
QUERY_WRITE_RECORDS = 50
#: Every this-many batches (and every batch right after a write) is
#: re-answered by the scalar oracle, outside the timed calls.
QUERY_CHECK_EVERY = 50
#: Nominal query batches per second; sizes the step count.
QUERY_BATCHES_PER_SECOND = 24.0


@dataclass
class Outcome:
    """What one pass over a workload's schedule measured and checked."""

    workload: str
    steps: int
    setup_seconds: list[float]
    step_seconds: list[float]
    timed_seconds: float
    work: int
    peak_rss_mb: float
    ncp_per_record: float
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Latencies beside the step latency: name -> per-call seconds.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: Registry snapshot over the timed window (traced runs only).
    registry: dict[str, object] | None = None
    recorder: SpanRecorder | None = None
    records_written: int = 0
    queries: int = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Window:
    """The timed window: collect garbage first, registry on when traced."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder

    def __enter__(self) -> "_Window":
        from repro.obs import OBS

        gc.collect()
        if self.recorder is not None:
            OBS.enable(reset=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.obs import OBS

        if self.recorder is not None:
            self.snapshot = OBS.snapshot()
            OBS.disable()
            self.recorder.step = None
        else:
            self.snapshot = None

    def step(self, index: int) -> None:
        if self.recorder is not None:
            self.recorder.step = index


def _timed_setups(
    build: Callable[[int], object],
    dispose: Callable[[object], None],
    repeats: int,
    recorder: SpanRecorder | None,
) -> tuple[object, list[float]]:
    """Build the starting state ``repeats`` times; keep the last one."""
    seconds: list[float] = []
    state = None
    for attempt in range(repeats):
        if state is not None:
            dispose(state)
            state = None
        gc.collect()
        if recorder is not None:
            recorder.step = "setup"
        started = time.perf_counter()
        state = build(attempt)
        seconds.append(time.perf_counter() - started)
    if recorder is not None:
        recorder.step = None
    return state, seconds


def schedule_length(seconds: float, per_second: float) -> int:
    return max(1, round(seconds * per_second))


# -- bulk_anonymize -------------------------------------------------------------


def bulk_anonymize(
    seed: int,
    seconds: float,
    workdir: Path,
    recorder: SpanRecorder | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    from repro import api
    from repro.dataset.agrawal import AgrawalGenerator, agrawal_schema
    from repro.dataset.io import read_table
    from repro.dataset.table import Table
    from repro.metrics.certainty import certainty_per_record

    rounds = schedule_length(seconds, 1.0 / BULK_ROUND_SECONDS)
    path = workdir / "agrawal.records"
    generator = AgrawalGenerator(seed)
    schema_table = Table(agrawal_schema(), ())

    def build(_attempt: int) -> Path:
        generator.write_file(str(path), BULK_RECORDS)
        return path

    _, setup_seconds = _timed_setups(build, lambda _p: None, setup_repeats, recorder)

    round_seconds: list[float] = []
    loaded: list[int] = []
    #: Per round, (k, digest, k_satisfied, record_count) of each release.
    releases: list[list[tuple]] = []
    with _Window(recorder) as window:
        for index in range(rounds):
            window.step(index)
            last_table = None
            started = time.perf_counter()
            with api.open(schema_table, base_k=BULK_BASE_K) as handle:
                loaded.append(handle.load(path, workers=1))
                results = [handle.release(k=k) for k in BULK_KS]
            round_seconds.append(time.perf_counter() - started)
            releases.append(
                [(r.k, r.digest, r.k_satisfied, r.record_count) for r in results]
            )
            last_table = results[0].table
            del results
    peak = _peak_rss_mb()

    outcome = Outcome(
        workload="bulk_anonymize",
        steps=rounds,
        setup_seconds=setup_seconds,
        step_seconds=round_seconds,
        timed_seconds=sum(round_seconds),
        work=rounds * BULK_RECORDS,
        peak_rss_mb=peak,
        ncp_per_record=certainty_per_record(
            last_table, read_table(path, agrawal_schema())
        ),
        registry=window.snapshot,
        recorder=recorder,
        records_written=rounds * BULK_RECORDS,
    )
    outcome.attempted = rounds * (1 + len(BULK_KS))
    for index, results in enumerate(releases):
        if loaded[index] != BULK_RECORDS:
            outcome.fail(f"round {index} loaded {loaded[index]} records")
        for (k, digest, satisfied, count), first in zip(results, releases[0]):
            if not satisfied:
                outcome.fail(f"round {index} k={k} audit is not k_satisfied")
            elif count != BULK_RECORDS:
                outcome.fail(f"round {index} k={k} release holds {count} records")
            elif digest != first[1]:
                outcome.fail(f"round {index} k={k} digest differs from round 0")
    return outcome


# -- serve_publish --------------------------------------------------------------


def publish_schedule(seed: int, steps: int):
    """The base table and, per step, (inserts, deletes, updates).

    Deletes and updates pick distinct live records, tracked here, so every
    scheduled operation is valid when the service applies it in order.
    Returns the live records after the last step as well.
    """
    from repro.dataset.landsend import LandsEndGenerator
    from repro.dataset.record import Record

    generator = LandsEndGenerator(LANDSEND_MARKET)
    stream = seed * STREAMS_PER_SEED
    base = generator.generate(SERVE_BASE_RECORDS, stream_offset=stream)
    rng = random.Random(seed)
    live: dict[int, Record] = {record.rid: record for record in base}
    rids = list(live)
    slot = {rid: index for index, rid in enumerate(rids)}

    def remove(rid: int) -> None:
        index = slot.pop(rid)
        last = rids.pop()
        if last != rid:
            rids[index] = last
            slot[last] = index

    next_rid = SERVE_BASE_RECORDS
    schedule = []
    for step in range(steps):
        inserts = generator.generate(
            PUBLISH_INSERTS, stream_offset=stream + 1 + 2 * step, first_rid=next_rid
        ).records
        next_rid += PUBLISH_INSERTS
        picked = rng.sample(rids, PUBLISH_DELETES + PUBLISH_UPDATES)
        deletes = [(rid, live[rid].point) for rid in picked[:PUBLISH_DELETES]]
        fresh = generator.generate_points(
            PUBLISH_UPDATES, stream_offset=stream + 2 + 2 * step
        )
        updates = [
            (rid, live[rid].point, Record(rid, tuple(float(v) for v in row)))
            for rid, row in zip(picked[PUBLISH_DELETES:], fresh)
        ]
        schedule.append((tuple(inserts), deletes, updates))
        for record in inserts:
            live[record.rid] = record
            slot[record.rid] = len(rids)
            rids.append(record.rid)
        for rid, _point in deletes:
            del live[rid]
            remove(rid)
        for rid, _old, record in updates:
            live[rid] = record
    return base, schedule, list(live.values())


def serve_publish(
    seed: int,
    seconds: float,
    workdir: Path,
    recorder: SpanRecorder | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    from repro import api
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.core.partition import release_digest
    from repro.dataset.table import Table
    from repro.durability import DurabilityConfig
    from repro.metrics.certainty import certainty_per_record

    steps = schedule_length(seconds, PUBLISH_STEPS_PER_SECOND)
    base, schedule, live = publish_schedule(seed, steps)

    def build(attempt: int):
        directory = workdir / f"wal-{attempt}"
        service = api.serve(base, durability=DurabilityConfig(dir=directory))
        service.load(base)
        service.release(PUBLISH_K)
        return service, directory

    def dispose(state) -> None:
        service, directory = state
        service.close()
        shutil.rmtree(directory, ignore_errors=True)

    (service, directory), setup_seconds = _timed_setups(
        build, dispose, setup_repeats, recorder
    )
    write_seconds: list[float] = []
    publish_seconds: list[float] = []
    step_seconds: list[float] = []
    replies: list[list] = []
    snapshots = []
    try:
        with _Window(recorder) as window:
            for index, (inserts, deletes, updates) in enumerate(schedule):
                window.step(index)
                started = time.perf_counter()
                futures = [service.submit_insert_batch(inserts)]
                futures.extend(
                    service.submit_delete(rid, point) for rid, point in deletes
                )
                futures.extend(
                    service.submit_update(rid, old, record)
                    for rid, old, record in updates
                )
                replies.append([future.result() for future in futures])
                written = time.perf_counter()
                snapshot = service.release(PUBLISH_K)
                published = time.perf_counter()
                write_seconds.append(written - started)
                publish_seconds.append(published - written)
                step_seconds.append(published - started)
                snapshots.append((snapshot.digest, snapshot.k_satisfied))
            final = snapshot
        peak = _peak_rss_mb()
    finally:
        service.close()
        shutil.rmtree(directory, ignore_errors=True)

    per_step = PUBLISH_INSERTS + PUBLISH_DELETES + PUBLISH_UPDATES
    outcome = Outcome(
        workload="serve_publish",
        steps=steps,
        setup_seconds=setup_seconds,
        step_seconds=step_seconds,
        timed_seconds=sum(step_seconds),
        work=steps * per_step,
        peak_rss_mb=peak,
        ncp_per_record=certainty_per_record(final.table, Table(base.schema, live)),
        latencies={"write": write_seconds, "publish": publish_seconds},
        registry=window.snapshot,
        recorder=recorder,
        records_written=steps * per_step,
    )
    outcome.attempted = steps * (1 + PUBLISH_DELETES + PUBLISH_UPDATES + 1)
    for index, ((inserts, deletes, updates), reply) in enumerate(zip(schedule, replies)):
        if reply[0] != len(inserts):
            outcome.fail(f"step {index} insert batch consumed {reply[0]}")
        expected = [rid for rid, _ in deletes] + [rid for rid, _, _ in updates]
        for rid, removed in zip(expected, reply[1:]):
            if removed.rid != rid:
                outcome.fail(f"step {index} write on rid {rid} returned {removed.rid}")
        if not snapshots[index][1]:
            outcome.fail(f"step {index} release audit is not k_satisfied")
    if final.record_count != len(live):
        outcome.fail(f"final release holds {final.record_count} of {len(live)} records")

    # Replay the same operation log in process on a fresh engine; the
    # final release must be bit-identical to the one the service served.
    # The first release ends the bulk load, as the warm release in set-up
    # does for the service.
    replay = RTreeAnonymizer(Table(base.schema, ()))
    replay.bulk_load(base)
    replay.anonymize(PUBLISH_K)
    for inserts, deletes, updates in schedule:
        replay.insert_batch(inserts)
        for rid, point in deletes:
            replay.delete(rid, point)
        for rid, old, record in updates:
            replay.update(rid, old, record)
    if release_digest(replay.anonymize(PUBLISH_K)) != final.digest:
        outcome.fail("final digest differs from an in-process replay of the op log")
    return outcome


# -- query_serve ----------------------------------------------------------------


def query_schedule(seed: int, steps: int):
    """The base table, per-step (k, queries, insert batch or None)."""
    from repro.dataset.landsend import LandsEndGenerator
    from repro.query.engine import point_query
    from repro.query.workload import random_range_workload, single_attribute_workload

    generator = LandsEndGenerator(LANDSEND_MARKET)
    stream = seed * STREAMS_PER_SEED
    base = generator.generate(SERVE_BASE_RECORDS, stream_offset=stream)
    names = [attribute.name for attribute in base.schema.quasi_identifiers]
    ranges = random_range_workload(base, QUERY_RANGES * steps, seed)
    per_attribute = math.ceil(QUERY_SINGLE_ATTRIBUTE * steps / len(names))
    singles = {
        name: single_attribute_workload(base, name, per_attribute, seed + offset)
        for offset, name in enumerate(names)
    }
    rng = random.Random(seed)
    next_rid = SERVE_BASE_RECORDS
    schedule = []
    single_index = 0
    for step in range(steps):
        queries = list(ranges[step * QUERY_RANGES : (step + 1) * QUERY_RANGES])
        for _ in range(QUERY_SINGLE_ATTRIBUTE):
            name = names[single_index % len(names)]
            queries.append(singles[name][single_index // len(names)])
            single_index += 1
        queries.extend(
            point_query(record.point)
            for record in rng.sample(base.records, QUERY_POINTS)
        )
        inserts = None
        if (step + 1) % QUERY_WRITE_EVERY == 0:
            inserts = generator.generate(
                QUERY_WRITE_RECORDS, stream_offset=stream + 1 + step, first_rid=next_rid
            ).records
            next_rid += QUERY_WRITE_RECORDS
        schedule.append((QUERY_KS[step % len(QUERY_KS)], queries, inserts))
    return base, schedule


def query_serve(
    seed: int,
    seconds: float,
    workdir: Path,
    recorder: SpanRecorder | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    from repro import api
    from repro.dataset.table import Table
    from repro.metrics.certainty import certainty_per_record
    from repro.query.ranges import count_anonymized

    steps = schedule_length(seconds, QUERY_BATCHES_PER_SECOND)
    base, schedule = query_schedule(seed, steps)
    warm_query = schedule[0][1][:1]

    def build(_attempt: int):
        service = api.serve(base)
        service.load(base)
        for k in QUERY_KS:
            service.release(k)
            service.query(warm_query, k=k)
        return service

    service, setup_seconds = _timed_setups(
        build, lambda s: s.close(), setup_repeats, recorder
    )
    batch_seconds: list[float] = []
    write_seconds: list[float] = []
    inserted = []
    #: (message, failed operations) from the checks below.
    problems: list[tuple[str, int]] = []
    audited: set[str] = set()

    def check(index: int, k: int, queries: list, result, oracle: bool) -> None:
        """Audit each new release once; re-answer sampled batches by oracle.

        Runs between timed calls.  The snapshot is read from the service's
        cache without counting a cache hit, so the registry's cache ratios
        stay those of the schedule itself.
        """
        snapshot = service.cache.get((k, "subtree", True, None), service.epoch)
        if snapshot is None or snapshot.digest != result.digest:
            message = f"batch {index}: no cached snapshot with the answer's digest"
            problems.append((message, len(queries)))
            return
        if snapshot.digest not in audited:
            audited.add(snapshot.digest)
            if not snapshot.k_satisfied:
                problems.append((f"batch {index}: release audit is not k_satisfied", 1))
        if oracle:
            for query, value in zip(queries, result.values):
                if count_anonymized(query, snapshot.table) != value:
                    message = f"batch {index}: answer {value} differs from the oracle"
                    problems.append((message, 1))

    try:
        with _Window(recorder) as window:
            for index, (k, queries, inserts) in enumerate(schedule):
                window.step(index)
                if inserts is not None:
                    started = time.perf_counter()
                    service.insert_batch(inserts)
                    write_seconds.append(time.perf_counter() - started)
                    inserted.extend(inserts)
                started = time.perf_counter()
                result = service.query(queries, k=k)
                batch_seconds.append(time.perf_counter() - started)
                oracle = index % QUERY_CHECK_EVERY == 0 or inserts is not None
                if oracle or result.digest not in audited:
                    check(index, k, queries, result, oracle)
        peak = _peak_rss_mb()
        finals = [service.release(k) for k in QUERY_KS]
    finally:
        service.close()

    live = Table(base.schema, list(base.records) + inserted)
    queries = sum(len(queries) for _, queries, _ in schedule)
    outcome = Outcome(
        workload="query_serve",
        steps=steps,
        setup_seconds=setup_seconds,
        step_seconds=batch_seconds,
        timed_seconds=sum(batch_seconds) + sum(write_seconds),
        work=queries,
        peak_rss_mb=peak,
        ncp_per_record=certainty_per_record(finals[0].table, live),
        latencies={"write": write_seconds},
        registry=window.snapshot,
        recorder=recorder,
        records_written=len(inserted),
        queries=queries,
    )
    outcome.attempted = queries + len(write_seconds)
    for message, count in problems:
        outcome.fail(message, count)
    for snapshot in finals:
        if not snapshot.k_satisfied:
            outcome.fail(f"final k={snapshot.k} release audit is not k_satisfied")
        if snapshot.record_count != len(live):
            outcome.fail(f"final k={snapshot.k} release holds {snapshot.record_count} records")
    return outcome


WORKLOADS = {
    "bulk_anonymize": bulk_anonymize,
    "serve_publish": serve_publish,
    "query_serve": query_serve,
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    traced: bool = False,
    delays: dict[str, float] | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    """One pass over a workload; traced passes wrap every layer entry point."""
    workdir.mkdir(parents=True, exist_ok=True)
    function = WORKLOADS[name]
    if not traced:
        return function(seed, seconds, workdir, setup_repeats=setup_repeats)
    recorder = SpanRecorder(delays)
    with instrument(recorder):
        return function(
            seed, seconds, workdir, recorder=recorder, setup_repeats=setup_repeats
        )
