"""Leaf-run releases against the record-list oracle, under random writes.

The ``subtree`` and ``sequential`` strategies publish runs of whole
leaves, each boxed by the union of its leaves' cached MBRs.
``tests/oracles.py`` keeps the record-list form of the same release
(``subtree_scan`` over copied records, ``Box.from_points`` per
partition).  This suite drives a small tree through random
insert, delete and update sequences on a tiny integer grid — so ties,
unsplittable leaves and cut values equal to record coordinates are the
norm — and demands partition-for-partition equality with the oracle:
the same record tuples, the same boxes, the same release digest.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.leafscan import subtree_scan
from repro.core.partition import AnonymizedTable, release_digest
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.rtree import RPlusTree
from repro.privacy.ldiversity import DistinctLDiversity
from tests import oracles
from tests.conftest import random_records

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
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), points, diagnoses),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
        st.tuples(st.just("update"), st.integers(0, 10_000), points),
    ),
    max_size=60,
)


def _build(
    base: int, initial: list[tuple[tuple[float, float], str]], program: list
) -> RTreeAnonymizer:
    """Load ``initial`` records, then apply the write program."""
    anonymizer = RTreeAnonymizer(Table(SCHEMA), base_k=base, max_fanout=3)
    live = {
        rid: Record(rid, point, (diagnosis,))
        for rid, (point, diagnosis) in enumerate(initial)
    }
    anonymizer.bulk_load(list(live.values()))
    next_rid = len(live)
    for operation in program:
        if operation[0] == "insert":
            _kind, point, diagnosis = operation
            record = Record(next_rid, point, (diagnosis,))
            next_rid += 1
            anonymizer.insert(record)
            live[record.rid] = record
        elif live:
            rids = sorted(live)
            old = live[rids[operation[1] % len(rids)]]
            if operation[0] == "delete":
                anonymizer.delete(old.rid, old.point)
                del live[old.rid]
            else:
                record = Record(old.rid, operation[2], old.sensitive)
                anonymizer.update(old.rid, old.point, record)
                live[old.rid] = record
    anonymizer.tree.check_invariants()
    return anonymizer


def _assert_matches_oracle(
    anonymizer: RTreeAnonymizer,
    k: int,
    strategy: str,
    constraint=None,
) -> None:
    try:
        expected = oracles.release_partitions(
            anonymizer, k, True, constraint, strategy
        )
    except ValueError:
        with pytest.raises(ValueError):
            anonymizer.anonymize(k, constraint=constraint, strategy=strategy)
        return
    release = anonymizer.anonymize(k, constraint=constraint, strategy=strategy)
    actual = release.partitions
    assert [p.records for p in actual] == [p.records for p in expected]
    assert [p.box for p in actual] == [p.box for p in expected]
    assert release_digest(release) == release_digest(
        AnonymizedTable(SCHEMA, expected)
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=st.sampled_from([2, 3, 5]),
    initial=st.lists(st.tuples(points, diagnoses), min_size=1, max_size=120),
    program=operations,
)
def test_leaf_run_releases_match_the_record_list_oracle(
    base: int, initial: list, program: list
) -> None:
    anonymizer = _build(base, initial, program)
    for k in sorted({base, 2 * base, 25}):
        if k > len(anonymizer):
            continue
        for strategy in ("subtree", "sequential"):
            _assert_matches_oracle(anonymizer, k, strategy)
            _assert_matches_oracle(
                anonymizer, k, strategy, DistinctLDiversity(2)
            )


def test_subtree_scan_runs_flatten_to_the_oracle_groups() -> None:
    """The scan itself, on a tree deep enough to recurse through cuts."""
    tree = RPlusTree(dimensions=3, k=2, max_fanout=3, domain_extents=(100.0,) * 3)
    BufferTreeLoader(tree).load(random_records(600, seed=4))
    assert tree.height >= 3
    for k1 in (2, 3, 7, 25, 60, 250):
        runs = subtree_scan(tree, k1)
        assert [leaf for run in runs for leaf in run] == tree.leaves()
        flattened = [[r for leaf in run for r in leaf.records] for run in runs]
        assert flattened == oracles.subtree_scan(tree, k1)
