"""Releases that reuse unchanged leaf runs, against a full recompute.

A compacted ``subtree`` or ``sequential`` release keeps each run's
partition, keyed by the versions of the run's leaves, and the partition
keeps its digest bytes and audit volume; the next release builds only the
runs whose key it has not seen.  That is sound only if every change to a
leaf's records draws a fresh version.  This suite drives ONE handle
through random programs that interleave writes of every kind
(``insert``, buffered ``insert_batch``, ``delete`` with underflow
dissolves, ``update``) with releases at several k, under both strategies,
with and without a constraint, and holds every release to the
record-list oracle (``tests/oracles.py``).  Its digest and its audit must
equal :func:`release_digest` and :func:`audit_release` over a table of
the oracle's fresh partitions, which hold no kept value, so they are a
full recompute.  A missed version bump shows as a stale partition, box,
digest or volume.  Programs come in
rounds of a few writes closed by a release, so most writes land between
two releases whose runs can be reused; a flat mix of writes and releases
found a deleted bump in only about one run in three.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anonymizer import MAX_RECIPES, RTreeAnonymizer
from repro.core.partition import AnonymizedTable, Release, release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, DurabilityError, recover
from repro.obs import OBS
from repro.obs.audit import audit_release
from repro.privacy.ldiversity import DistinctLDiversity
from tests import oracles
from tests.conftest import random_records
from tests.test_mutation_faults import FaultyWAL

GRID = 6
DIAGNOSES = ("flu", "cold", "cancer")
SCHEMA = Schema(
    (Attribute.numeric("a", 0, GRID), Attribute.numeric("b", 0, GRID)),
    sensitive=("diagnosis",),
)

points = st.tuples(
    st.integers(0, GRID).map(float), st.integers(0, GRID).map(float)
)
diagnoses = st.sampled_from(DIAGNOSES)
releases = st.tuples(
    st.just("release"),
    st.sampled_from([1, 2, 5]),
    st.sampled_from(["subtree", "sequential"]),
    st.booleans(),
)
writes = st.one_of(
    st.tuples(st.just("insert"), points, diagnoses),
    st.tuples(
        st.just("insert_batch"),
        st.lists(st.tuples(points, diagnoses), min_size=1, max_size=6),
    ),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("update"), st.integers(0, 10_000), points),
)
#: A program: rounds of up to three writes, each round closed by a release.
rounds = st.lists(st.tuples(st.lists(writes, max_size=3), releases), max_size=15)


def _assert_full_recompute(
    anonymizer: RTreeAnonymizer,
    k: int,
    strategy: str,
    constraint=None,
) -> Release | None:
    """Release through the handle; demand what a full recompute gives."""
    try:
        expected = oracles.release_partitions(
            anonymizer, k, True, constraint, strategy
        )
    except ValueError:
        with pytest.raises(ValueError):
            anonymizer.release(k, constraint=constraint, strategy=strategy)
        return None
    release = anonymizer.release(k, constraint=constraint, strategy=strategy)
    table = release.table
    assert [p.records for p in table.partitions] == [p.records for p in expected]
    assert [p.box for p in table.partitions] == [p.box for p in expected]
    assert release.digest == release_digest(table)
    assert release.digest == release_digest(
        AnonymizedTable(anonymizer.schema, expected)
    )
    assert release.audit == audit_release(table, k, base_k=anonymizer.base_k)
    assert release.audit == audit_release(
        AnonymizedTable(anonymizer.schema, expected), k, base_k=anonymizer.base_k
    )
    return release


class _Program:
    """One handle and the live records a write program has left in it."""

    def __init__(self, base: int, initial: list) -> None:
        self.anonymizer = RTreeAnonymizer(Table(SCHEMA), base_k=base, max_fanout=3)
        self.live = {
            rid: Record(rid, point, (diagnosis,))
            for rid, (point, diagnosis) in enumerate(initial)
        }
        self.anonymizer.bulk_load(list(self.live.values()))
        self.next_rid = len(self.live)

    def _new(self, point, diagnosis) -> Record:
        record = Record(self.next_rid, point, (diagnosis,))
        self.next_rid += 1
        self.live[record.rid] = record
        return record

    def _pick(self, index: int) -> Record:
        rids = sorted(self.live)
        return self.live[rids[index % len(rids)]]

    def run(self, operation: tuple) -> None:
        anonymizer = self.anonymizer
        kind = operation[0]
        if kind == "insert":
            anonymizer.insert(self._new(*operation[1:]))
        elif kind == "insert_batch":
            anonymizer.insert_batch([self._new(*item) for item in operation[1]])
        elif kind == "release":
            _kind, multiple, strategy, diverse = operation
            constraint = DistinctLDiversity(2) if diverse else None
            k = multiple * anonymizer.base_k
            if k <= len(anonymizer):
                _assert_full_recompute(anonymizer, k, strategy, constraint)
        elif self.live:
            old = self._pick(operation[1])
            if kind == "delete":
                anonymizer.delete(old.rid, old.point)
                del self.live[old.rid]
            else:
                record = Record(old.rid, operation[2], old.sensitive)
                anonymizer.update(old.rid, old.point, record)
                self.live[old.rid] = record


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=st.sampled_from([2, 3, 5]),
    initial=st.lists(st.tuples(points, diagnoses), min_size=1, max_size=100),
    program=rounds,
)
def test_interleaved_releases_equal_a_full_recompute(
    base: int, initial: list, program: list
) -> None:
    state = _Program(base, initial)
    for round_writes, release in program:
        for operation in (*round_writes, release):
            state.run(operation)
    state.anonymizer.tree.check_invariants()
    for strategy in ("subtree", "sequential"):
        if base <= len(state.anonymizer):
            _assert_full_recompute(state.anonymizer, base, strategy)


def _counted_release(anonymizer: RTreeAnonymizer, k: int) -> tuple[int, int]:
    """Release at ``k``; return (runs reused, runs built)."""
    OBS.enable(reset=True)
    try:
        _assert_full_recompute(anonymizer, k, "subtree")
        return (
            OBS.counter_value("core.runs_reused"),
            OBS.counter_value("core.runs_built"),
        )
    finally:
        OBS.disable()
        OBS.reset()


def _loaded(seed: int = 5, **options: int) -> RTreeAnonymizer:
    """400 two-dimensional records on a 60 x 60 grid, base k 3."""
    records = random_records(400, dimensions=2, seed=seed, high=60)
    schema = Schema(
        (Attribute.numeric("a", 0, 60), Attribute.numeric("b", 0, 60)),
        sensitive=("diagnosis",),
    )
    anonymizer = RTreeAnonymizer(
        Table(schema, tuple(records)), base_k=3, **options  # type: ignore[arg-type]
    )
    anonymizer.bulk_load(records)
    return anonymizer


def test_each_write_rebuilds_only_the_run_it_touched() -> None:
    """At k = base k every leaf is its own run.  A write that changes one
    leaf's records without splitting or dissolving it must rebuild that
    run, and only that one; ``close()`` drops every kept run."""
    anonymizer = _loaded()
    tree = anonymizer.tree
    reused, runs = _counted_release(anonymizer, 3)
    assert reused == 0 and runs == len(tree.leaves()) > 20
    assert _counted_release(anonymizer, 3) == (runs, 0)
    roomy = [
        leaf for leaf in tree.leaves() if 3 < len(leaf.records) < tree.leaf_capacity
    ]
    first, second, third, fourth = (leaf.records[0] for leaf in roomy[:4])
    neighbour = roomy[3].records[1]
    writes = [
        lambda: anonymizer.insert(Record(9_000, first.point, ("flu",))),
        lambda: anonymizer.insert_batch([Record(9_001, second.point, ("flu",))]),
        lambda: anonymizer.delete(third.rid, third.point),
        lambda: anonymizer.update(
            fourth.rid, fourth.point, Record(fourth.rid, neighbour.point, ("flu",))
        ),
    ]
    for write in writes:
        write()
        assert _counted_release(anonymizer, 3) == (runs - 1, 1)
    anonymizer.close()
    assert _counted_release(anonymizer, 3) == (0, runs)


def test_release_after_a_failed_delete_restores_through_the_fail_safe_path() -> None:
    """An orphan reinsert fails mid-dissolve; ``_restore_records`` puts the
    orphans and the victim back into neighbouring leaves, whose runs the
    previous release kept."""
    # Roomy leaves, so the restored records fit without a split.
    anonymizer = _loaded(seed=22, leaf_capacity=24)
    tree = anonymizer.tree
    _assert_full_recompute(anonymizer, 3, "subtree")
    leaf = min(
        (c for c in tree.leaves() if c is not tree.root),
        key=lambda c: len(c.records),
    )
    while len(leaf.records) > 3:  # shave down to the k-floor first
        doomed = leaf.records[-1]
        anonymizer.delete(doomed.rid, doomed.point)
    _assert_full_recompute(anonymizer, 3, "subtree")
    victim = leaf.records[0]

    def failing_insert(record: Record) -> None:
        raise OSError("injected insert failure")

    tree.insert = failing_insert  # type: ignore[method-assign]
    try:
        with pytest.raises(OSError, match="injected"):
            anonymizer.delete(victim.rid, victim.point)
    finally:
        del tree.insert
    for k in (3, 6):
        _assert_full_recompute(anonymizer, k, "subtree")
        _assert_full_recompute(anonymizer, k, "sequential")


@pytest.mark.parametrize("operation", ["insert", "delete", "update"])
def test_release_after_a_failed_wal_append(
    tmp_path, schema3, operation: str
) -> None:
    """A write whose log append fails stops the handle, so no release is
    served from a tree the log does not hold; the recovered handle's
    releases equal a full recompute of the last acknowledged state."""
    records = random_records(100, seed=31)
    anonymizer = RTreeAnonymizer(
        Table(schema3, tuple(records)),
        base_k=5,
        durability=DurabilityConfig(tmp_path / "state"),
    )
    try:
        anonymizer.bulk_load(records)
        assert anonymizer.durability is not None
        wal = FaultyWAL(anonymizer.durability._wal)
        anonymizer.durability._wal = wal
        acknowledged = _assert_full_recompute(anonymizer, 5, "subtree")
        old = records[23]
        wal.armed = True
        with pytest.raises(OSError, match="injected"):
            if operation == "insert":
                anonymizer.insert(Record(500, (1.0, 2.0, 3.0), ("flu",)))
            elif operation == "delete":
                anonymizer.delete(old.rid, old.point)
            else:
                moved = Record(old.rid, (50.0, 50.0, 50.0), old.sensitive)
                anonymizer.update(old.rid, old.point, moved)
        wal.armed = False
        for strategy in ("subtree", "sequential"):
            with pytest.raises(DurabilityError):
                anonymizer.release(5, strategy=strategy)
    finally:
        anonymizer.close()
    with recover(tmp_path / "state").anonymizer as recovered:
        assert len(recovered) == 100
        recovered_release = _assert_full_recompute(recovered, 5, "subtree")
        assert recovered_release.digest == acknowledged.digest
        for k in (5, 10):
            _assert_full_recompute(recovered, k, "subtree")
            _assert_full_recompute(recovered, k, "sequential")


#: The one constraint object every constrained recipe below shares.
DIVERSE = DistinctLDiversity(2)
#: A recipe: (multiple of the base k, strategy, constrained?).
recipes = st.tuples(
    st.sampled_from([1, 2, 5]),
    st.sampled_from(["subtree", "sequential"]),
    st.booleans(),
)
#: Two or three recipes, and rounds of up to three writes, each round
#: closed by one release of every recipe, in an order rotated per round.
alternating_programs = st.tuples(
    st.lists(recipes, min_size=2, max_size=3, unique=True),
    st.lists(st.lists(writes, max_size=3), max_size=10),
)


def _run_alternating(base: int, initial: list, program: tuple) -> None:
    """Releases that rotate over a few recipes between write rounds each
    equal a full recompute; so do the releases after ``close()``."""
    chosen, write_rounds = program
    state = _Program(base, initial)
    anonymizer = state.anonymizer
    for turn, round_writes in enumerate(write_rounds):
        for operation in round_writes:
            state.run(operation)
        shift = turn % len(chosen)
        for multiple, strategy, diverse in chosen[shift:] + chosen[:shift]:
            if multiple * base <= len(anonymizer):
                constraint = DIVERSE if diverse else None
                _assert_full_recompute(
                    anonymizer, multiple * base, strategy, constraint
                )
    anonymizer.close()
    for multiple, strategy, diverse in chosen:
        if multiple * base <= len(anonymizer):
            constraint = DIVERSE if diverse else None
            _assert_full_recompute(anonymizer, multiple * base, strategy, constraint)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=st.sampled_from([2, 3, 5]),
    initial=st.lists(st.tuples(points, diagnoses), min_size=1, max_size=100),
    program=alternating_programs,
)
def test_alternating_recipes_equal_a_full_recompute(
    base: int, initial: list, program: tuple
) -> None:
    _run_alternating(base, initial, program)


@pytest.mark.stress
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=st.sampled_from([2, 3, 5]),
    initial=st.lists(st.tuples(points, diagnoses), min_size=1, max_size=100),
    program=alternating_programs,
)
def test_alternating_recipes_equal_a_full_recompute_long(
    base: int, initial: list, program: tuple
) -> None:
    _run_alternating(base, initial, program)


def _counted(
    anonymizer: RTreeAnonymizer, k: int, strategy: str = "subtree"
) -> tuple[int, int]:
    """Release a recipe; return (runs reused, runs built)."""
    OBS.enable(reset=True)
    try:
        _assert_full_recompute(anonymizer, k, strategy)
        assert OBS.gauge_value("core.kept_runs") == len(anonymizer._runs)
        return (
            OBS.counter_value("core.runs_reused"),
            OBS.counter_value("core.runs_built"),
        )
    finally:
        OBS.disable()
        OBS.reset()


def test_each_recipe_keeps_its_runs_until_it_is_least_recently_published() -> None:
    """Recipe A (k = base k) publishes one run per leaf.  The fillers have
    k above the leaf capacity, so none of their runs is one leaf and
    none is A's.  A stays kept while it is among the MAX_RECIPES most
    recently published recipes, and rebuilds every run once it is not."""
    anonymizer = _loaded()
    leaves = len(anonymizer.tree.leaves())
    first_k = anonymizer.tree.leaf_capacity + 1
    fillers = [
        (k, strategy)
        for k in range(first_k, first_k + MAX_RECIPES // 2)
        for strategy in ("subtree", "sequential")
    ]
    assert len(fillers) == MAX_RECIPES
    assert _counted(anonymizer, 3) == (0, leaves)
    for k, strategy in fillers[:-1]:
        _counted(anonymizer, k, strategy)
    # MAX_RECIPES recipes are kept; A republishes and becomes the newest.
    assert _counted(anonymizer, 3) == (leaves, 0)
    # One recipe past the bound evicts the least recently published
    # (the first filler), not A, the first published.
    _counted(anonymizer, *fillers[-1])
    assert _counted(anonymizer, 3) == (leaves, 0)
    # MAX_RECIPES other recipes since A's last release: A is evicted.
    for k, strategy in fillers:
        _counted(anonymizer, k, strategy)
    assert _counted(anonymizer, 3) == (0, leaves)


def test_close_drops_every_recipe() -> None:
    """Two kept recipes with no run in common (one-leaf runs at the base
    k, runs of two or more leaves above the leaf capacity); after
    ``close()`` each rebuilds all its runs."""
    anonymizer = _loaded()
    chosen = [(3, "subtree"), (anonymizer.tree.leaf_capacity + 1, "sequential")]
    runs = [_counted(anonymizer, k, strategy)[1] for k, strategy in chosen]
    assert [_counted(anonymizer, k, strategy) for k, strategy in chosen] == [
        (count, 0) for count in runs
    ]
    anonymizer.close()
    for (k, strategy), count in zip(reversed(chosen), reversed(runs)):
        assert _counted(anonymizer, k, strategy) == (0, count)
