"""Query machinery: §5.4 match semantics, counting, errors, buckets."""

from __future__ import annotations

import pytest

from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.query.accuracy import (
    QueryOutcome,
    average_error,
    bucket_by_selectivity,
    evaluate_workload,
)
from repro.query.ranges import (
    RangeQuery,
    count_anonymized,
    count_anonymized_bulk,
    count_original,
    count_original_bulk,
    estimate_anonymized,
)
from repro.query.workload import random_range_workload, single_attribute_workload
from tests.conftest import random_records


@pytest.fixture
def schema2() -> Schema:
    return Schema((Attribute.numeric("age", 0, 100), Attribute.numeric("zip", 0, 100)))


class TestMatchSemantics:
    def test_paper_examples(self, schema2) -> None:
        """The exact §5.4 examples: r=([40-50],[53710-53720]) matches
        Q=(45<=age<=55 and 53700<=zip<=53715); r=([30-35],...) does not."""
        query = RangeQuery(Box((45.0, 53_700.0), (55.0, 53_715.0)))
        matching = Box((40.0, 53_710.0), (50.0, 53_720.0))
        non_matching = Box((30.0, 53_700.0), (35.0, 53_715.0))
        assert query.matches_box(matching)
        assert not query.matches_box(non_matching)

    def test_point_semantics_closed(self, schema2) -> None:
        query = RangeQuery(Box((10.0, 10.0), (20.0, 20.0)))
        assert query.matches_point((10.0, 20.0))
        assert not query.matches_point((9.9, 15.0))


class TestCounting:
    def make_release(self, schema2) -> tuple[AnonymizedTable, Table]:
        groups = [
            [(5.0, 5.0), (10.0, 10.0)],
            [(50.0, 50.0), (55.0, 55.0), (60.0, 60.0)],
        ]
        rid = 0
        partitions = []
        original = Table(schema2)
        for group in groups:
            records = []
            for point in group:
                record = Record(rid, point)
                original.append(record)
                records.append(record)
                rid += 1
            partitions.append(
                Partition(tuple(records), Box.from_points(p for p in group))
            )
        return AnonymizedTable(schema2, partitions), original

    def test_count_original(self, schema2) -> None:
        release, original = self.make_release(schema2)
        query = RangeQuery(Box((0.0, 0.0), (20.0, 20.0)))
        assert count_original(query, original) == 2

    def test_count_anonymized_whole_partitions(self, schema2) -> None:
        release, _original = self.make_release(schema2)
        # Touches the first partition's box only -> its whole size counts.
        query = RangeQuery(Box((0.0, 0.0), (6.0, 6.0)))
        assert count_anonymized(query, release) == 2
        # Touches both boxes.
        query = RangeQuery(Box((8.0, 8.0), (52.0, 52.0)))
        assert count_anonymized(query, release) == 5

    def test_bulk_counts_match_scalar(self, schema2, medium_table) -> None:
        from repro.core.anonymizer import RTreeAnonymizer

        # A realistic release over the medium table.
        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        release = anonymizer.anonymize(5)
        queries = random_range_workload(medium_table, 50, seed=4)
        bulk_orig = count_original_bulk(queries, medium_table)
        bulk_anon = count_anonymized_bulk(queries, release)
        for index, query in enumerate(queries):
            assert bulk_orig[index] == count_original(query, medium_table)
            assert bulk_anon[index] == count_anonymized(query, release)

    def test_bulk_counts_exact_beyond_float53(self) -> None:
        """Regression: sizes routed through float64 lose exactness at 2**53.

        ``2**53 + 1`` is not representable in float64, so the old
        float-dtype bulk path answered ``2**53`` while the scalar oracle
        answered ``2**53 + 1``.  Duck-typed partitions keep the test cheap
        (no materialized nine-quadrillion-record table).
        """

        class _HugePartition:
            def __init__(self, box: Box, size: int) -> None:
                self.box = box
                self._size = size
                # The columns are joined from the row a partition packs.
                self.box_row = Partition((Record(0, box.lows),), box).box_row

            def __len__(self) -> int:
                return self._size

        class _HugeTable:
            def __init__(self, partitions) -> None:
                self.partitions = partitions

        box = Box((0.0, 0.0), (10.0, 10.0))
        table = _HugeTable([_HugePartition(box, 2**53), _HugePartition(box, 1)])
        query = RangeQuery(Box((0.0, 0.0), (5.0, 5.0)))
        scalar = count_anonymized(query, table)
        assert scalar == 2**53 + 1
        assert count_anonymized_bulk([query], table)[0] == scalar

    def test_uniform_estimate(self, schema2) -> None:
        release, _ = self.make_release(schema2)
        # The §2.3 estimator: partition [50,60]^2 (discrete volume 11x11),
        # query covers [50,55] on both -> 6x6 cells of 11x11, 3 records.
        query = RangeQuery(Box((50.0, 50.0), (55.0, 55.0)))
        expected = 3 * (6 * 6) / (11 * 11)
        assert estimate_anonymized(query, release) == pytest.approx(expected)

    def test_uniform_estimate_degenerate_box(self, schema2) -> None:
        records = (Record(0, (5.0, 5.0)), Record(1, (5.0, 5.0)))
        release = AnonymizedTable(
            schema2, [Partition(records, Box((5.0, 5.0), (5.0, 5.0)))]
        )
        query = RangeQuery(Box((0.0, 0.0), (9.0, 9.0)))
        assert estimate_anonymized(query, release) == pytest.approx(2.0)


class TestWorkloads:
    def test_random_workload_always_matches_two_records(self, medium_table) -> None:
        queries = random_range_workload(medium_table, 100, seed=1)
        counts = count_original_bulk(queries, medium_table)
        assert (counts >= 2).all()  # bounds derive from two real records

    def test_single_attribute_workload_unbounded_elsewhere(self, medium_table) -> None:
        queries = single_attribute_workload(medium_table, "b", 50, seed=2)
        for query in queries:
            assert query.box.lows[0] == 0.0 and query.box.highs[0] == 100.0
            assert query.box.lows[2] == 0.0 and query.box.highs[2] == 100.0

    def test_random_workload_pair_sampled_without_replacement(self, schema3) -> None:
        """Regression: with-replacement sampling could draw one record twice.

        On a two-record table the old code drew a degenerate (r, r) pair
        with probability 1/2 per query, producing a point query matching a
        single record — 30 queries made a violation all but certain.
        """
        records = [
            Record(0, (0.0, 0.0, 0.0), ("x",)),
            Record(1, (100.0, 100.0, 100.0), ("y",)),
        ]
        table = Table(schema3, records)
        queries = random_range_workload(table, 30, seed=7)
        counts = count_original_bulk(queries, table)
        assert (counts >= 2).all()

    def test_single_attribute_workload_pair_without_replacement(
        self, schema3
    ) -> None:
        records = [
            Record(0, (0.0, 0.0, 0.0), ("x",)),
            Record(1, (100.0, 100.0, 100.0), ("y",)),
        ]
        table = Table(schema3, records)
        queries = single_attribute_workload(table, "a", 30, seed=7)
        counts = count_original_bulk(queries, table)
        assert (counts >= 2).all()

    def test_workloads_reproducible(self, medium_table) -> None:
        a = random_range_workload(medium_table, 20, seed=3)
        b = random_range_workload(medium_table, 20, seed=3)
        assert [q.box for q in a] == [q.box for q in b]

    def test_tiny_table_rejected(self, schema3) -> None:
        table = Table(schema3, random_records(1, seed=0))
        with pytest.raises(ValueError):
            random_range_workload(table, 5)
        with pytest.raises(ValueError):
            single_attribute_workload(table, "a", 5)


class TestAccuracy:
    def test_error_definition(self) -> None:
        outcome = QueryOutcome(
            RangeQuery(Box((0.0,), (1.0,))), original_count=10, anonymized_count=25
        )
        assert outcome.error == pytest.approx(1.5)

    def test_average_error(self) -> None:
        query = RangeQuery(Box((0.0,), (1.0,)))
        outcomes = [
            QueryOutcome(query, 10, 20),  # error 1.0
            QueryOutcome(query, 10, 40),  # error 3.0
        ]
        assert average_error(outcomes) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            average_error([])

    def test_anonymized_count_never_undercounts(self, medium_table) -> None:
        """Whole-partition counting over boxes that cover the data can only
        overcount, so every error is >= 0."""
        from repro.core.anonymizer import RTreeAnonymizer

        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        release = anonymizer.anonymize(10)
        queries = random_range_workload(medium_table, 100, seed=5)
        outcomes = evaluate_workload(queries, release, medium_table)
        assert all(outcome.error >= 0 for outcome in outcomes)

    def test_precomputed_original_counts(self, medium_table) -> None:
        from repro.core.anonymizer import RTreeAnonymizer

        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        release = anonymizer.anonymize(10)
        queries = random_range_workload(medium_table, 30, seed=6)
        counts = count_original_bulk(queries, medium_table).tolist()
        with_pre = evaluate_workload(queries, release, medium_table, counts)
        without = evaluate_workload(queries, release, medium_table)
        assert [o.error for o in with_pre] == [o.error for o in without]

    def test_buckets_cover_all_queries(self, medium_table) -> None:
        from repro.core.anonymizer import RTreeAnonymizer

        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        release = anonymizer.anonymize(10)
        queries = random_range_workload(medium_table, 200, seed=7)
        outcomes = evaluate_workload(queries, release, medium_table)
        buckets = bucket_by_selectivity(outcomes, len(medium_table))
        assert sum(count for _band, count, _err in buckets) == len(outcomes)

    def test_buckets_invalid_table_size(self) -> None:
        with pytest.raises(ValueError):
            bucket_by_selectivity([], 0)

    def test_selectivity_is_a_fraction(self, medium_table) -> None:
        """Regression: ``selectivity`` used to return the raw original count."""
        from repro.core.anonymizer import RTreeAnonymizer

        anonymizer = RTreeAnonymizer(medium_table, base_k=5)
        anonymizer.bulk_load(medium_table)
        release = anonymizer.anonymize(10)
        queries = random_range_workload(medium_table, 50, seed=8)
        outcomes = evaluate_workload(queries, release, medium_table)
        for outcome in outcomes:
            assert 0.0 < outcome.selectivity <= 1.0
            assert outcome.selectivity == pytest.approx(
                outcome.original_count / len(medium_table)
            )

    def test_selectivity_without_table_size_raises(self) -> None:
        outcome = QueryOutcome(RangeQuery(Box((0.0,), (1.0,))), 10, 25)
        with pytest.raises(ValueError):
            outcome.selectivity
