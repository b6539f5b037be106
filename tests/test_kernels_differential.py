"""Production-vs-oracle differential suite for the numpy kernel paths.

Page decode, Hilbert keying and the sharded scan's slice sort each have
one production path, a numpy kernel.  This suite holds every one of them
to the scalar reference code in ``tests/oracles.py``, end to end and
level by level:

* releases — a file load through production (serial file order, or the
  sharded scan at 1 and 4 workers) against the same anonymizer fed the
  oracle's record stream (file order, or the scalar ``(key, rid)`` sort of
  the file), compared at the four levels of the serial/parallel
  differential suite: leaf regions, partition boxes and membership, the
  release digest, and the release's audit record;
* the Hilbert order, and each slice's sorted run;
* page decode and encode, byte for byte.

The full grid and the forced-process-pool cell carry the ``stress``
marker, but nothing deselects it: the tier-1 suite and the
kernels-differential CI job both run every cell.  ``-m "not stress"``
leaves the small census cell and the unmarked checks, for a quick local
run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.dataset import io as io_module
from repro.dataset.agrawal import make_agrawal_table
from repro.dataset.census import make_census_table
from repro.dataset.io import RecordFileReader, RecordFileWriter, write_table
from repro.index.bulk import (
    DEFAULT_HILBERT_BITS as BITS,
    chunk_with_floor,
    hilbert_ordered,
    hilbert_partitions,
)
from repro.parallel.engine import _scan_slice, slice_bounds
from tests import oracles

RECORDS = 600
STRESS_RECORDS = 2_400
SEED = 7
DATASETS = {
    "census": make_census_table,
    "agrawal": make_agrawal_table,
}
GRID = [
    (dataset, k, workers)
    for dataset in sorted(DATASETS)
    for k in (5, 25)
    for workers in (1, 4)
]


@lru_cache(maxsize=None)
def _table(dataset: str, records: int):
    return DATASETS[dataset](records, seed=SEED)


def _domain(table):
    return table.schema.domain_lows(), table.schema.domain_highs()


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    staging = tmp_path_factory.mktemp("kernels_differential")
    paths = {}
    for dataset in DATASETS:
        for records in (RECORDS, STRESS_RECORDS):
            path = str(staging / f"{dataset}-{records}.records")
            write_table(_table(dataset, records), path)
            paths[dataset, records] = path
    return paths


def _release_snapshot(
    dataset: str, k: int, workers: int | None, records: int, path: str, oracle: bool
):
    """Load from file and publish at k, through production or the oracle.

    The oracle feeds the loader the stream the production file load must
    reproduce: file order for a serial load, the scalar ``(key, rid)`` sort
    of the file for a sharded load at any worker count.
    """
    table = _table(dataset, records)
    anonymizer = RTreeAnonymizer(table, base_k=min(5, k))
    if not oracle:
        consumed = anonymizer.bulk_load_file(path, workers=workers)
    elif workers is None:
        consumed = anonymizer.bulk_load(oracles.read_records(path))
    else:
        lows, highs = _domain(table)
        consumed = anonymizer.bulk_load(
            oracles.hilbert_ordered(list(oracles.read_records(path)), lows, highs)
        )
    assert consumed == records
    published = anonymizer.release(k)
    release = published.table
    regions = [
        (region.lows, region.highs) for region in oracles.leaf_regions(anonymizer)
    ]
    partitions = [
        ((p.box.lows, p.box.highs), sorted(p.rids()))
        for p in release.partitions
    ]
    return regions, partitions, published.digest, published.audit


def _assert_matches_oracle(dataset, k, workers, records, path) -> None:
    production = _release_snapshot(dataset, k, workers, records, path, oracle=False)
    reference = _release_snapshot(dataset, k, workers, records, path, oracle=True)
    for name, got, expected in zip(
        ("regions", "partitions", "digest", "audit"), production, reference
    ):
        assert got == expected, (
            f"{dataset} k={k} workers={workers}: {name} diverged from the "
            "oracle release"
        )


def test_small_cell_release_matches_oracle(record_files) -> None:
    """The tier-1 cell: serial and sharded, census at the default k."""
    path = record_files["census", RECORDS]
    for workers in (None, 2):
        _assert_matches_oracle("census", 5, workers, RECORDS, path)


@pytest.mark.stress
@pytest.mark.parametrize(("dataset", "k", "workers"), GRID)
def test_release_matches_oracle(
    dataset: str, k: int, workers: int, record_files
) -> None:
    path = record_files[dataset, STRESS_RECORDS]
    _assert_matches_oracle(dataset, k, workers, STRESS_RECORDS, path)


@pytest.mark.stress
def test_forced_multiprocessing_matches_oracle(
    monkeypatch, record_files
) -> None:
    """Cross the real process boundary: a forced pool of kernel scans must
    reproduce the oracle's in-process scalar scan."""
    monkeypatch.setenv("REPRO_PARALLEL_POOL", "force")
    path = record_files["census", RECORDS]
    _assert_matches_oracle("census", 5, 4, RECORDS, path)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_hilbert_ordering_matches_oracle(dataset: str) -> None:
    """The ``(key, rid)`` order of the bulk-loading ablation, and the
    Hilbert grouping it builds on that order."""
    table = _table(dataset, RECORDS)
    records = list(table.records)
    lows, highs = _domain(table)
    assert hilbert_ordered(records, lows, highs) == (
        oracles.hilbert_ordered(records, lows, highs)
    )
    assert hilbert_partitions(records, lows, highs, 5) == chunk_with_floor(
        oracles.hilbert_ordered(records, lows, highs), 5
    )
    for few in (records[:0], records[:1]):
        assert hilbert_ordered(few, lows, highs) == few


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_slice_runs_match_oracle(dataset: str, record_files) -> None:
    """Each slice the sharded scan sorts through the kernel must come back
    as the scalar ``(key, rid)`` sort of that slice's records, keyed by the
    scalar Hilbert keys."""
    lows, highs = _domain(_table(dataset, RECORDS))
    path = record_files[dataset, RECORDS]
    for start, count in slice_bounds(RECORDS, 3):
        task = (path, start, count, 10, 64, lows, highs)
        run, keys, seconds = _scan_slice(task)
        expected = oracles.hilbert_ordered(
            list(oracles.read_records(path, 64, 10, start, count)), lows, highs
        )
        assert run == expected
        assert keys == [
            oracles._key(record.point, lows, highs, BITS) for record in expected
        ]
        assert seconds >= 0


def test_batch_writer_produces_byte_identical_files(tmp_path, monkeypatch) -> None:
    """``write_batch`` and the paged ``write_all`` (pages cut short so the
    file spans several) against a per-record ``write_point`` control file."""
    monkeypatch.setattr(io_module, "_WRITE_PAGE_RECORDS", 77)
    table = _table("census", RECORDS)
    points = [record.point for record in table.records]
    scalar_path = tmp_path / "scalar.records"
    batch_path = tmp_path / "batch.records"
    paged_path = tmp_path / "paged.records"
    with RecordFileWriter(scalar_path, len(points[0])) as writer:
        for point in points:
            writer.write_point(point)
    with RecordFileWriter(batch_path, len(points[0])) as writer:
        written = writer.write_batch(np.array(points, dtype=np.float64))
    assert written == len(points)
    with RecordFileWriter(paged_path, len(points[0])) as writer:
        assert writer.write_all(iter(points)) == len(points)
    assert batch_path.read_bytes() == scalar_path.read_bytes()
    assert paged_path.read_bytes() == scalar_path.read_bytes()


def test_batch_reader_yields_the_scalar_rows(tmp_path) -> None:
    """Every read surface — pages, points, records, and the slice windows
    the slice scanners use — against the ``struct`` page decoder."""
    table = _table("census", RECORDS)
    path = tmp_path / "census.records"
    write_table(table, path)
    reader = RecordFileReader(path)
    expected = list(oracles.read_records(path, first_rid=10))
    rows = [record.point for record in expected]
    for batch_size in (1, 7, 256, 10_000):
        paged: list[tuple[float, ...]] = []
        positions: list[int] = []
        for position, points in reader.iter_point_batches(batch_size):
            positions.append(position)
            paged.extend(tuple(row) for row in points.tolist())
        assert paged == rows
        assert positions[0] == 0
        assert list(reader.iter_points(batch_size)) == rows
        assert list(reader.iter_records(batch_size, first_rid=10)) == expected
    window = list(reader.iter_point_batches(64, start=100, count=37))
    windowed = [
        tuple(row) for _, points in window for row in points.tolist()
    ]
    assert windowed == rows[100:137]
    assert window[0][0] == 100
    assert list(reader.iter_records(16, start=100, count=37)) == list(
        oracles.read_records(path, 16, start=100, count=37)
    )
