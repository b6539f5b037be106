"""End-to-end property suite: fuzz the whole anonymization pipeline.

Hypothesis drives random tables, schemas, anonymity levels and operation
mixes through the full stack (generate -> load -> mutate -> release ->
audit -> score -> query) and checks the invariants that must hold for
*every* input, not just the benchmark workloads:

* every release passes the independent k-anonymity audit;
* compaction never enlarges boxes, never changes memberships, never hurts
  certainty or KL;
* the anonymized COUNT of any record-pair query is at least the original
  COUNT (whole-partition matching can only overcount);
* metrics respect their analytic bounds;
* multi-release sets from one index survive the intersection attack.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.compaction import compact_table
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.metrics.certainty import certainty_penalty
from repro.metrics.discernibility import (
    discernibility_lower_bound,
    discernibility_penalty,
)
from repro.metrics.kl import kl_divergence
from repro.privacy.attack import intersection_attack
from repro.privacy.kanonymity import verify_release
from repro.query.ranges import count_anonymized, count_original
from repro.query.workload import random_range_workload
from tests.conftest import bulk_release

#: Random integer tables: 2-4 dimensions, 20-150 records, small domains
#: (to force duplicate-heavy corner cases).
tables = st.integers(2, 4).flatmap(
    lambda dims: st.lists(
        st.tuples(*(st.integers(0, 25) for _ in range(dims))),
        min_size=20,
        max_size=150,
    )
)


def build_table(points: list[tuple[int, ...]]) -> Table:
    dims = len(points[0])
    schema = Schema(
        tuple(Attribute.numeric(f"a{d}", 0, 25) for d in range(dims)),
        sensitive=("s",),
    )
    table = Table(schema)
    for rid, point in enumerate(points):
        table.append(
            Record(rid, tuple(float(v) for v in point), (f"v{rid % 3}",))
        )
    return table


@settings(max_examples=30, deadline=None)
@given(tables, st.integers(2, 8))
def test_release_always_audits_clean(points, k) -> None:
    table = build_table(points)
    if len(table) < k:
        return
    release = bulk_release(table, k, base_k=min(3, k))
    assert verify_release(release, table, k) == []


@settings(max_examples=25, deadline=None)
@given(tables, st.integers(2, 6))
def test_compaction_monotone_everywhere(points, k) -> None:
    from repro.baselines.mondrian import mondrian_anonymize

    table = build_table(points)
    if len(table) < k:
        return
    release = mondrian_anonymize(table, k)
    compacted = compact_table(release)
    # Memberships identical, boxes never larger.
    for before, after in zip(release.partitions, compacted.partitions):
        assert before.rids() == after.rids()
        assert before.box.contains_box(after.box)
    # Box-sensitive metrics never get worse; discernibility frozen.
    assert certainty_penalty(compacted, table) <= certainty_penalty(release, table)
    assert kl_divergence(compacted, table) <= kl_divergence(release, table) + 1e-9
    assert discernibility_penalty(compacted) == discernibility_penalty(release)


@settings(max_examples=25, deadline=None)
@given(tables, st.integers(2, 5), st.integers(0, 10_000))
def test_anonymized_counts_never_undercount(points, k, seed) -> None:
    table = build_table(points)
    if len(table) < k:
        return
    release = bulk_release(table, k, base_k=min(3, k))
    for query in random_range_workload(table, 5, seed=seed):
        assert count_anonymized(query, release) >= count_original(query, table)


@settings(max_examples=25, deadline=None)
@given(tables, st.integers(2, 6))
def test_metric_bounds(points, k) -> None:
    table = build_table(points)
    if len(table) < k:
        return
    release = bulk_release(table, k, base_k=min(3, k))
    n = len(table)
    dm = discernibility_penalty(release)
    assert discernibility_lower_bound(n, k) <= dm <= n * n
    cm = certainty_penalty(release, table)
    assert 0.0 <= cm <= n * table.schema.dimensions
    assert kl_divergence(release, table) >= -1e-9


@settings(max_examples=15, deadline=None)
@given(tables)
def test_multigranular_releases_survive_the_attack(points) -> None:
    table = build_table(points)
    base_k = 2
    if len(table) < 12:
        return
    anonymizer = RTreeAnonymizer(table, base_k=base_k)
    anonymizer.bulk_load(table)
    granularities = [g for g in (2, 4, 8) if g <= len(table)]
    releases = [anonymizer.anonymize(g) for g in granularities]
    report = intersection_attack(releases)
    assert report.preserves_k(base_k)


@settings(max_examples=15, deadline=None)
@given(tables, st.data())
def test_release_after_churn_audits_clean(points, data) -> None:
    """Insert/delete churn, then release: the audit must still be clean."""
    table = build_table(points)
    if len(table) < 20:
        return
    anonymizer = RTreeAnonymizer(table, base_k=3)
    anonymizer.bulk_load(table)
    alive = {record.rid: record for record in table}
    # Random churn: up to 10 deletions and 10 fresh inserts.
    doomed = data.draw(
        st.lists(st.sampled_from(sorted(alive)), max_size=10, unique=True)
    )
    for rid in doomed:
        record = alive.pop(rid)
        anonymizer.delete(rid, record.point)
    dims = table.schema.dimensions
    fresh_points = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, 25) for _ in range(dims))),
            max_size=10,
        )
    )
    for offset, point in enumerate(fresh_points):
        record = Record(
            100_000 + offset, tuple(float(v) for v in point), ("vX",)
        )
        anonymizer.insert(record)
        alive[record.rid] = record
    anonymizer.tree.check_invariants()
    k = 3
    if len(alive) < k:
        return
    survivors = Table(table.schema, list(alive.values()))
    release = anonymizer.anonymize(k)
    assert verify_release(release, survivors, k) == []
