"""One release path: both handles forward to ``RTreeAnonymizer.release``.

The engine is the only place a release is grouped, audited and digested.
These tests pin what that buys: the two handles publish equal releases
for the same records, and a release's audit is the record of that very
table even when another handle publishes in between.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro import api, obs
from repro.core.partition import Release
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.obs.audit import ReleaseAuditor
from repro.query.ranges import RangeQuery
from tests.conftest import random_records


def two_diagnoses(records) -> bool:
    """A per-partition constraint: at least two distinct sensitive values."""
    return len({record.sensitive for record in records}) >= 2


def open_handle(table: Table):
    handle = api.open(table, base_k=5)
    handle.load(table)
    return handle


def serve_handle(table: Table):
    service = api.serve(table, base_k=5)
    service.load(table)
    return service


@pytest.fixture
def audited():
    obs.AUDITOR.enable(reset=True)
    try:
        yield obs.AUDITOR
    finally:
        obs.AUDITOR.disable()
        obs.AUDITOR.reset()


@pytest.mark.parametrize("make_handle", [open_handle, serve_handle])
def test_release_audit_survives_a_racing_publish(
    schema3, monkeypatch, audited, make_handle
) -> None:
    """Another handle's publish lands right after this release's audit.

    The release must still carry its own audit record: the one the auditor
    returned for its table, not the auditor's latest record.
    """
    table = Table(schema3, tuple(random_records(600, seed=31)))
    other = open_handle(table)
    original = ReleaseAuditor.on_release
    raced: list[Release | None] = []

    def on_release(self, *args, **kwargs):
        record = original(self, *args, **kwargs)
        if not raced:
            raced.append(None)  # the racer's own audit must not race again
            raced[0] = other.release(k=50)
        return record

    monkeypatch.setattr(ReleaseAuditor, "on_release", on_release)
    handle = make_handle(table)
    try:
        release = handle.release(k=10)
    finally:
        handle.close()
    assert raced and raced[0].audit["k_requested"] == 50
    assert audited.latest is raced[0].audit  # the racer published last
    assert release.audit["k_requested"] == release.k == 10
    assert release.audit["partition_count"] == release.partition_count
    assert release.audit["record_count"] == release.record_count


RECIPES = [
    pytest.param("subtree", None, id="subtree-compacted"),
    pytest.param("sequential", None, id="sequential-compacted"),
    pytest.param("subtree", two_diagnoses, id="subtree-constraint"),
]


@pytest.mark.parametrize("strategy,constraint", RECIPES)
@pytest.mark.parametrize("k", [5, 20])
def test_both_handles_publish_equal_releases(
    schema3, strategy, constraint, k
) -> None:
    table = Table(schema3, tuple(random_records(700, seed=32)))
    handle = open_handle(table)
    with serve_handle(table) as service:
        served = service.release(k, constraint=constraint, strategy=strategy)
    opened = handle.release(k, constraint=constraint, strategy=strategy)
    assert opened.epoch is None
    assert served.epoch == 1  # one bump: the load
    served = replace(served, epoch=None)
    for field in fields(Release):
        if field.name == "table":
            continue  # AnonymizedTable compares by identity
        assert getattr(served, field.name) == getattr(opened, field.name), field.name
    assert served.table.schema is opened.table.schema
    assert served.table.partitions == opened.table.partitions
    assert (opened.k, opened.strategy) == (k, strategy)
    assert opened.k_satisfied


def test_removed_release_options_fail_loudly(schema3) -> None:
    """Every release is a compacted ``subtree`` or ``sequential`` one: the
    old ``compacted=`` keyword is refused by every publish entry point, and
    so is the old ``"hilbert"`` strategy, with an error naming both kept
    strategies."""
    table = Table(schema3, tuple(random_records(300, seed=33)))
    handle = open_handle(table)
    everything = RangeQuery(Box((0.0,) * 3, (1e9,) * 3))
    with serve_handle(table) as service:
        publishers = [
            handle.engine.anonymize,
            handle.engine.release,
            handle.release,
            service.release,
            lambda k, **options: service.query(everything, k=k, **options),
        ]
        for publish in publishers:
            with pytest.raises(TypeError):
                publish(10, **{"compacted": True})
            with pytest.raises(ValueError, match="subtree.*sequential"):
                publish(10, **{"strategy": "hilbert"})
    # A positional second argument no longer binds to a keyword either.
    with pytest.raises(TypeError):
        handle.engine.anonymize(10, False)
    handle.close()
