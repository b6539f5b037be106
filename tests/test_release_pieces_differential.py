"""Subtree releases spliced from kept pieces, on deep trees, against a full recompute.

A ``subtree`` release keeps one *piece* per internal node it entered:
the runs the walk closed inside the node, keyed by the node's version and
the records carried into it (see :func:`repro.core.leafscan.subtree_scan`).
The next release of that recipe splices every node whose version and
incoming carry are unchanged and walks the rest.  Versions cover every
change under a node only if every write bumps its root path, and
``finish_bulk`` trusts the same versions to find the leaves a write group
left over capacity.

The small trees of ``tests/test_release_reuse_differential.py`` hold few
internal levels.  Here fanout 3 or 4 over 200 to 800 records at base k 2
or 3 gives trees five to eight levels deep, so pieces nest, and releases
at k = base, 2·base and 5·base enter many nodes with a nonzero carry.
Programs interleave every write kind (single inserts, buffered batches
that split internal nodes, deletes that dissolve leaves, updates) with
releases, with and without a constraint.  Every release must equal
:func:`tests.oracles.subtree_scan`, and its digest and audit a full
recompute over fresh partitions.  Every ``finish_bulk`` must split
exactly the leaves a full ``tree.leaves()`` filter would, in that order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import AnonymizedTable, release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.obs import OBS
from repro.obs.audit import audit_release
from repro.privacy.ldiversity import DistinctLDiversity
from tests import oracles
from tests.conftest import random_records

GRID = 40
DIAGNOSES = ("flu", "cold", "cancer")
SCHEMA = Schema(
    (Attribute.numeric("a", 0, GRID), Attribute.numeric("b", 0, GRID)),
    sensitive=("diagnosis",),
)
#: The one constraint object every constrained recipe shares.
DIVERSE = DistinctLDiversity(2)

points = st.tuples(
    st.integers(0, GRID).map(float), st.integers(0, GRID).map(float)
)
writes = st.one_of(
    st.tuples(st.just("insert"), points),
    st.tuples(st.just("insert_batch"), st.lists(points, min_size=1, max_size=40)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    # Deletes the leaf's records down past the k floor: a dissolve.
    st.tuples(st.just("drain_leaf"), st.integers(0, 10_000)),
    st.tuples(st.just("update"), st.integers(0, 10_000), points),
    # A record replaced by one with another diagnosis at the same point:
    # the leaf's count stays, what a constraint reads does not.
    st.tuples(st.just("swap"), st.integers(0, 10_000)),
)
releases = st.tuples(st.sampled_from([1, 2, 5]), st.booleans())
#: Rounds: a write group (one ``write`` call) then one or two releases.
programs = st.lists(
    st.tuples(
        st.lists(writes, min_size=1, max_size=4),
        st.lists(releases, min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=6,
)


class _Deep:
    """One deep-tree handle, its live records, and a finish_bulk check."""

    def __init__(self, fanout: int, base: int, size: int, seed: int) -> None:
        records = random_records(size, dimensions=2, seed=seed, high=GRID)
        self.anonymizer = RTreeAnonymizer(Table(SCHEMA), base_k=base, max_fanout=fanout)
        self.live = {record.rid: record for record in records}
        self.next_rid = size
        self.bulk_checks = 0
        tree = self.anonymizer.tree
        finish_bulk = tree.finish_bulk
        split_leaf = tree._split_leaf

        def checked_finish_bulk() -> None:
            """Split exactly what a full ``tree.leaves()`` filter would."""
            capacity = tree.leaf_capacity
            expected = [
                leaf
                for leaf in tree.leaves()
                if len(leaf.records) > capacity and _splittable(tree, leaf)
            ]
            split: list = []
            depth = [0]

            def recorded_split(leaf, path, points=None) -> None:
                if not depth[0] and _splittable(tree, leaf):
                    split.append(leaf)
                depth[0] += 1
                try:
                    split_leaf(leaf, path, points)
                finally:
                    depth[0] -= 1

            tree._split_leaf = recorded_split  # type: ignore[method-assign]
            try:
                finish_bulk()
            finally:
                del tree._split_leaf
            assert [id(leaf) for leaf in split] == [id(leaf) for leaf in expected]
            self.bulk_checks += 1

        tree.finish_bulk = checked_finish_bulk  # type: ignore[method-assign]
        self.anonymizer.bulk_load(records)

    def _pick(self, index: int) -> Record:
        rids = sorted(self.live)
        return self.live[rids[index % len(rids)]]

    def ops(self, group: list[tuple]) -> list[tuple]:
        """The write ops of one group, tracking the live records."""
        ops: list[tuple] = []
        for write in group:
            kind = write[0]
            if kind == "insert":
                ops.append(("insert", self._new(write[1])))
            elif kind == "insert_batch":
                ops.append(("insert_batch", [self._new(point) for point in write[1]]))
            elif len(self.live) > 2 * self.anonymizer.base_k:
                old = self._pick(write[1])
                if kind == "update":
                    record = Record(old.rid, write[2], old.sensitive)
                    ops.append(("update", old.rid, old.point, record))
                    self.live[old.rid] = record
                    continue
                if kind == "swap":
                    ops.append(("delete", old.rid, old.point))
                    del self.live[old.rid]
                    other = "cold" if old.sensitive != ("cold",) else "flu"
                    ops.append(("insert", self._new(old.point, other)))
                    continue
                victims = [old]
                if kind == "drain_leaf":
                    leaf = self.anonymizer.tree.locate_leaf(old.point)
                    victims = [r for r in leaf.records if r.rid in self.live]
                    victims = victims[: len(victims) - self.anonymizer.base_k + 1]
                for victim in victims:
                    ops.append(("delete", victim.rid, victim.point))
                    del self.live[victim.rid]
        return ops

    def _new(self, point: tuple[float, float], diagnosis: str | None = None) -> Record:
        """A new record; by default its diagnosis follows from its rid."""
        if diagnosis is None:
            diagnosis = DIAGNOSES[self.next_rid % 3]
        record = Record(self.next_rid, point, (diagnosis,))
        self.next_rid += 1
        self.live[record.rid] = record
        return record

    def release(self, multiple: int, diverse: bool) -> None:
        anonymizer = self.anonymizer
        k = multiple * anonymizer.base_k
        if k <= len(anonymizer):
            _assert_full_recompute(anonymizer, k, DIVERSE if diverse else None)


def _splittable(tree, leaf) -> bool:
    from repro.index.split import point_matrix

    return (
        tree._policy.choose_split(
            leaf.records, point_matrix(leaf.records), tree.k, tree.domain_extents
        )
        is not None
    )


def _assert_full_recompute(anonymizer: RTreeAnonymizer, k: int, constraint) -> None:
    """The release's runs are the oracle's groups; its digest and audit
    equal a recompute over fresh partitions."""
    tree = anonymizer.tree
    try:
        groups = oracles.subtree_scan(tree, k, constraint)
    except ValueError:
        with pytest.raises(ValueError):
            anonymizer.release(k, constraint=constraint)
        return
    release = anonymizer.release(k, constraint=constraint)
    table = release.table
    assert [list(p.records) for p in table.partitions] == groups
    expected = oracles.release_partitions(anonymizer, k, True, constraint)
    assert [p.box for p in table.partitions] == [p.box for p in expected]
    fresh = AnonymizedTable(anonymizer.schema, expected)
    assert release.digest == release_digest(fresh)
    assert release.audit == audit_release(fresh, k, base_k=anonymizer.base_k)
    assert release.audit == oracles.audit_release(fresh, k, base_k=anonymizer.base_k)


def _run(fanout: int, base: int, size: int, seed: int, program: list) -> _Deep:
    state = _Deep(fanout, base, size, seed)
    for group, published in program:
        state.anonymizer.write(state.ops(group))
        for multiple, diverse in published:
            state.release(multiple, diverse)
    state.anonymizer.tree.check_invariants()
    for multiple in (1, 2, 5):
        state.release(multiple, False)
    return state


deep = dict(
    fanout=st.sampled_from([3, 4]),
    base=st.sampled_from([2, 3]),
    size=st.integers(200, 800),
    seed=st.integers(0, 10_000),
    program=programs,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**deep)
def test_deep_tree_releases_equal_a_full_recompute(
    fanout: int, base: int, size: int, seed: int, program: list
) -> None:
    _run(fanout, base, size, seed, program)


@pytest.mark.stress
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**deep)
def test_deep_tree_releases_equal_a_full_recompute_long(
    fanout: int, base: int, size: int, seed: int, program: list
) -> None:
    _run(fanout, base, size, seed, program)


def _pieces(entries: dict | None, level: int = 0):
    """Every kept (piece, depth) of a piece tree, parents first."""
    for _offset, piece in (entries or {}).values():
        yield piece, level
        yield from _pieces(piece[7], level + 1)


def test_a_fixed_program_reaches_every_case() -> None:
    """The cases the generated programs are there to reach, on one seed:
    nested pieces, pieces keyed by a nonzero carry, dissolves, internal
    splits, and releases that splice more nodes than they walk."""
    batch = [(float(i % GRID), float(i * 7 % GRID)) for i in range(40)]
    program = [
        ([("insert_batch", batch)], [(1, False), (2, False)]),
        (
            [("drain_leaf", 3), ("drain_leaf", 90), ("update", 5, (1.0, 2.0))],
            [(1, False), (5, True)],
        ),
        ([("insert", (20.0, 20.0)), ("delete", 17)], [(2, False), (1, False)]),
    ]
    OBS.enable(reset=True)
    try:
        state = _run(3, 2, 600, 12, program)
        assert OBS.counter_value("rtree.dissolves") > 0
        assert OBS.counter_value("rtree.internal_splits") > 0
        anonymizer = state.anonymizer
        anonymizer.insert(Record(state.next_rid, (20.0, 21.0), ("flu",)))
        OBS.reset()
        _assert_full_recompute(anonymizer, 2 * anonymizer.base_k, None)
        assert OBS.counter_value("core.pieces_reused") > OBS.counter_value(
            "core.pieces_built"
        )
    finally:
        OBS.disable()
        OBS.reset()
    assert state.bulk_checks >= 2
    kept = anonymizer._recipes[(2 * anonymizer.base_k, "subtree", None)]
    pieces = list(_pieces(kept.root))
    assert max(level for _piece, level in pieces) >= 3
    assert any(piece[1] > 0 for piece, _level in pieces)

