"""Serial/parallel differential suite.

The sharded file load's contract is *bit-for-bit equality* across worker
counts, and with the scalar oracle's ``(key, rid)`` sort of the file.
This suite enforces it across a grid of datasets × k × workers, at four
levels:

1. the Hilbert grouping of the sharded record stream (vs
   `hilbert_partitions` of the table),
2. the built index (leaf record groups, leaf MBRs, invariants of
   ``RTreeAnonymizer.bulk_load_file(path, workers=w)`` vs an anonymizer fed
   ``tests.oracles.hilbert_ordered`` of the file's records),
3. the published release through :class:`RTreeAnonymizer` from a staged
   record file (leaf regions, partition boxes and membership, digest),
4. the privacy/quality verdicts (`is_k_anonymous`, discernibility,
   certainty) and the auditor's record, modulo its sequence field.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.agrawal import make_agrawal_table
from repro.dataset.census import make_census_table
from repro.dataset.io import write_table
from repro.dataset.landsend import make_landsend_table
from repro.index.bulk import chunk_with_floor, hilbert_partitions
from repro.metrics.certainty import certainty_penalty
from repro.metrics.discernibility import discernibility_penalty
from repro.obs import AUDITOR
from repro.parallel import scan_file_shards
from repro.privacy.kanonymity import is_k_anonymous
from tests import oracles

RECORDS = 600
SEED = 7
DATASETS = {
    "landsend": make_landsend_table,
    "census": make_census_table,
    "agrawal": make_agrawal_table,
}
KS = (2, 5, 25)
WORKER_COUNTS = (1, 2, 4)
GRID = [
    (dataset, k)
    for dataset in sorted(DATASETS)
    for k in KS
]


@lru_cache(maxsize=None)
def _table(dataset: str):
    return DATASETS[dataset](RECORDS, seed=SEED)


def _domain(table):
    return table.schema.domain_lows(), table.schema.domain_highs()


def _leaf_groups(tree):
    return [[record.rid for record in leaf.records] for leaf in tree.leaves()]


def _leaf_mbrs(tree):
    return [leaf.mbr for leaf in tree.leaves()]


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    staging = tmp_path_factory.mktemp("differential")
    paths = {}
    for dataset in DATASETS:
        path = str(staging / f"{dataset}.records")
        write_table(_table(dataset), path)
        paths[dataset] = path
    return paths


@pytest.mark.parametrize(("dataset", "k"), GRID)
def test_partition_grouping_matches_serial(
    dataset: str, k: int, record_files
) -> None:
    """The sharded stream, chunked at the k-floor, is the serial Hilbert
    grouping of the same records."""
    table = _table(dataset)
    lows, highs = _domain(table)
    serial = hilbert_partitions(list(table.records), lows, highs, k)
    expected = [[record.rid for record in group] for group in serial]
    for workers in WORKER_COUNTS:
        stream = scan_file_shards(record_files[dataset], lows, highs, workers)
        grouping = [
            [record.rid for record in group] for group in chunk_with_floor(stream, k)
        ]
        assert grouping == expected, (
            f"{dataset} k={k} workers={workers}: grouping diverged"
        )


def _assert_tree_matches_oracle(
    dataset: str, k: int, path: str, worker_counts: tuple[int, ...]
) -> None:
    """Leaf membership, leaf MBRs and invariants of the sharded file load
    against an anonymizer fed the scalar ``(key, rid)`` sort of the file."""
    table = _table(dataset)
    lows, highs = _domain(table)
    oracle = RTreeAnonymizer(table, base_k=k)
    oracle.bulk_load(
        oracles.hilbert_ordered(list(oracles.read_records(path)), lows, highs)
    )
    reference = oracle.tree
    reference.check_invariants()
    for workers in worker_counts:
        anonymizer = RTreeAnonymizer(table, base_k=k)
        assert anonymizer.bulk_load_file(path, workers=workers) == RECORDS
        tree = anonymizer.tree
        tree.check_invariants()
        assert _leaf_groups(tree) == _leaf_groups(reference), (
            f"{dataset} k={k} workers={workers}: leaf membership diverged"
        )
        assert _leaf_mbrs(tree) == _leaf_mbrs(reference), (
            f"{dataset} k={k} workers={workers}: leaf MBRs diverged"
        )
        assert len(tree) == len(reference)


@pytest.mark.parametrize(("dataset", "k"), GRID)
def test_built_tree_matches_serial(dataset: str, k: int, record_files) -> None:
    _assert_tree_matches_oracle(dataset, k, record_files[dataset], WORKER_COUNTS)


def _released(dataset: str, k: int, workers: int, path: str):
    """One audited release built from the staged file at a worker count."""
    table = _table(dataset)
    anonymizer = RTreeAnonymizer(table, base_k=min(5, k))
    consumed = anonymizer.bulk_load_file(path, workers=workers)
    assert consumed == RECORDS
    AUDITOR.enable(reset=True)
    try:
        release = anonymizer.anonymize(k)
        audit = dict(AUDITOR.latest)
    finally:
        AUDITOR.disable()
    regions = [
        (region.lows, region.highs) for region in oracles.leaf_regions(anonymizer)
    ]
    return release, regions, audit


@pytest.mark.parametrize(("dataset", "k"), GRID)
def test_release_from_file_matches_serial(dataset: str, k: int, record_files) -> None:
    """The anonymizer-level differential: leaf regions, partitions, digest,
    k verdict, quality metrics and audit record all agree across workers."""
    table = _table(dataset)
    path = record_files[dataset]
    reference = None
    for workers in WORKER_COUNTS:
        release, regions, audit = _released(dataset, k, workers, path)
        partitions = [
            ((p.box.lows, p.box.highs), sorted(p.rids()))
            for p in release.partitions
        ]
        verdict = is_k_anonymous(release, k)
        metrics = (
            discernibility_penalty(release),
            certainty_penalty(release, table),
        )
        digest = release_digest(release)
        audit.pop("sequence", None)
        snapshot = (regions, partitions, verdict, metrics, digest, audit)
        if reference is None:
            reference = snapshot
            assert verdict, f"{dataset} k={k}: serial release not k-anonymous"
            continue
        for name, got, expected in zip(
            ("regions", "partitions", "k-verdict", "metrics", "digest", "audit"),
            snapshot,
            reference,
        ):
            assert got == expected, (
                f"{dataset} k={k} workers={workers}: {name} diverged"
            )


def test_forced_multiprocessing_matches_serial(monkeypatch, record_files) -> None:
    """One grid cell with one process per slice forced, so the differential
    crosses the real multiprocessing boundary even on single-CPU machines
    (elsewhere the engine caps the pool at the CPU count)."""
    monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")
    _assert_tree_matches_oracle("landsend", 5, record_files["landsend"], (4,))
