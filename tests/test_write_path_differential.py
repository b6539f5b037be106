"""Mixed write groups through a durable service, three ways round.

Random programs of inserts, insert batches, deletes (unknown rids among
them) and updates go through a durable, journaled
:class:`~repro.serve.AnonymizerService`, a step at a time.  A step's first
write is taken alone by the writer, which then waits for the write lock
the test holds, so the step's other writes coalesce into mixed groups of
up to ``max_batch``.  After each step's ``barrier()`` the served
release's digest must equal:

* the journal's ops applied as one-at-a-time engine calls
  (``insert_batch``, ``delete``, ``update``, a refused delete ignored);
* ``engine.write`` over the journal, one call per group;
* ``recover()`` of a copy of the service's durability directory.

Every future must also resolve to its own op's result.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, recover
from repro.durability.faults import clone_state
from repro.serve import AnonymizerService, ServiceConfig
from tests.conftest import random_records

GRID = 20
K = 10
SCHEMA = Schema(
    tuple(Attribute.numeric(name, 0, GRID) for name in ("a", "b", "c")),
    sensitive=("diagnosis",),
)
BASE = random_records(120, seed=5, high=GRID)

points = st.tuples(*[st.integers(0, GRID).map(float)] * 3)
writes = st.one_of(
    st.tuples(st.just("insert"), points),
    st.tuples(st.just("insert_batch"), st.lists(points, min_size=1, max_size=30)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("unknown_delete"), points),
    st.tuples(st.just("update"), st.integers(0, 10_000), points),
)
programs = st.lists(st.lists(writes, min_size=1, max_size=12), min_size=1, max_size=5)


def _one_at_a_time(journal) -> str:
    engine = RTreeAnonymizer(Table(SCHEMA, ()), base_k=5)
    for group in journal:
        for op in group:
            if op[0] == "insert_batch":
                engine.insert_batch(op[1])
            elif op[0] == "update":
                engine.update(*op[1:])
            else:
                with contextlib.suppress(KeyError):
                    engine.delete(*op[1:])
    return engine.release(K).digest


def _written(journal) -> str:
    engine = RTreeAnonymizer(Table(SCHEMA, ()), base_k=5)
    for group in journal:
        engine.write(group)
    return engine.release(K).digest


def _recovered(directory: Path, copy: Path) -> str:
    clone_state(directory, copy)
    with recover(copy).anonymizer as recovered:
        return recovered.release(K).digest


def _submit(service, write, live: dict, next_rid: list) -> tuple:
    """Submit one write; return its future and what it must resolve to."""
    kind = write[0]
    if kind in ("insert", "insert_batch"):
        chosen = [write[1]] if kind == "insert" else write[1]
        records = []
        for point in chosen:
            records.append(Record(next_rid[0], point, ("flu",)))
            live[next_rid[0]] = records[-1]
            next_rid[0] += 1
        if kind == "insert":
            return service.submit_insert(records[0]), None
        return service.submit_insert_batch(records), len(records)
    if kind == "unknown_delete":
        return service.submit_delete(999_999, write[1]), KeyError
    rid = sorted(live)[write[1] % len(live)]
    old = live[rid]
    if kind == "delete":
        del live[rid]
        return service.submit_delete(rid, old.point), old
    live[rid] = Record(rid, write[2], old.sensitive)
    return service.submit_update(rid, old.point, live[rid]), old


def _run(program) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "state"
        engine = RTreeAnonymizer(
            Table(SCHEMA, ()), base_k=5, durability=DurabilityConfig(directory)
        )
        config = ServiceConfig(journal=True, max_batch=8)
        with AnonymizerService(engine, config) as service:
            service.load(BASE)
            live = {record.rid: record for record in BASE}
            next_rid = [10_000]
            for step, writes_of_step in enumerate(program):
                with service._write_lock:
                    first, *rest = writes_of_step
                    submitted = [_submit(service, first, live, next_rid)]
                    deadline = time.monotonic() + 10
                    while not service._inflight and time.monotonic() < deadline:
                        time.sleep(0.001)
                    submitted += [
                        _submit(service, write, live, next_rid) for write in rest
                    ]
                epoch = service.barrier()
                for future, expected in submitted:
                    if expected is KeyError:
                        assert isinstance(future.exception(), KeyError)
                    else:
                        assert future.result() == expected
                release = service.release(K)
                journal = service.journal
                assert epoch == len(journal)
                assert release.record_count == len(live)
                assert release.k_satisfied
                assert _one_at_a_time(journal) == release.digest
                assert _written(journal) == release.digest
                copy = Path(scratch) / f"copy-{step}"
                assert _recovered(directory, copy) == release.digest


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs)
def test_service_groups_equal_single_ops_journal_and_recovery(program) -> None:
    _run(program)


def test_refused_deletes_between_insert_runs() -> None:
    """The shape a mixed group needs a run break for, pinned: two dense
    insert runs split only by refused deletes load in two passes."""
    region = [
        (float(5 + i % 4), float(5 + i // 4 % 4), float(5 + i // 16))
        for i in range(64)
    ]
    _run(
        [
            [
                ("insert", (0.0, 0.0, 0.0)),
                ("insert_batch", region[:32]),
                ("unknown_delete", (1.0, 1.0, 1.0)),
                ("unknown_delete", (2.0, 2.0, 2.0)),
                ("insert_batch", region[32:]),
                ("delete", 3),
                ("insert", (2.0, 3.0, 4.0)),
                ("update", 7, (9.0, 9.0, 9.0)),
            ]
        ]
    )
