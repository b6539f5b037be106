"""The census generator and the hierarchy-aware pipeline on top of it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.compaction import describe_partition
from repro.dataset.census import (
    CENSUS_ATTRIBUTES,
    INCOME_BRACKETS,
    CensusGenerator,
    census_schema,
    make_census_table,
)
from repro.metrics.certainty import certainty_penalty
from repro.privacy.kanonymity import verify_release
from repro.privacy.ldiversity import DistinctLDiversity
from tests.conftest import bulk_release


@pytest.fixture(scope="module")
def census_table():
    return make_census_table(3_000, seed=5)


class TestGenerator:
    def test_schema_shape(self) -> None:
        schema = census_schema()
        assert schema.names() == CENSUS_ATTRIBUTES
        assert schema.sensitive == ("income",)
        # Five attributes carry deep hierarchies; race/sex are flat.
        deep = [
            a.name
            for a in schema.quasi_identifiers
            if a.hierarchy is not None and a.hierarchy.height > 1
        ]
        assert set(deep) == {
            "workclass", "education", "marital_status", "occupation", "region"
        }

    def test_determinism(self) -> None:
        a = make_census_table(100, seed=1)
        b = make_census_table(100, seed=1)
        assert a.points() == b.points()
        assert [r.sensitive for r in a] == [r.sensitive for r in b]

    def test_codes_match_hierarchy_orderings(self) -> None:
        generator = CensusGenerator()
        schema = generator.schema
        education = schema.attribute("education").hierarchy
        assert education is not None
        ordering = education.ordering()
        assert generator.code("education", "Bachelors") == ordering["Bachelors"]

    def test_values_within_domains(self, census_table) -> None:
        for dimension, attribute in enumerate(
            census_table.schema.quasi_identifiers
        ):
            values = [r.point[dimension] for r in census_table]
            assert min(values) >= attribute.domain_low
            assert max(values) <= attribute.domain_high

    def test_income_is_sensitive_and_correlated(self, census_table) -> None:
        incomes = {r.sensitive[0] for r in census_table}
        assert incomes <= set(INCOME_BRACKETS)
        # Structure for diversity experiments: both brackets present, the
        # high bracket a minority, and correlated with education tier.
        high = [r for r in census_table if r.sensitive[0] == ">50K"]
        assert 0.1 * len(census_table) < len(high) < 0.5 * len(census_table)
        generator = CensusGenerator(seed=5)
        bachelor_code = generator.code("education", "Bachelors")
        education_index = census_table.schema.index_of("education")
        high_rate_educated = np.mean(
            [
                r.sensitive[0] == ">50K"
                for r in census_table
                if r.point[education_index] >= bachelor_code
            ]
        )
        high_rate_rest = np.mean(
            [
                r.sensitive[0] == ">50K"
                for r in census_table
                if r.point[education_index] < bachelor_code
            ]
        )
        assert high_rate_educated > 1.5 * high_rate_rest


class TestHierarchyAwarePipeline:
    def test_release_audits_clean(self, census_table) -> None:
        release = bulk_release(census_table, 10)
        assert verify_release(release, census_table, 10) == []

    def test_hierarchical_certainty_differs_from_numeric(self, census_table) -> None:
        """The categorical NCP branch charges leaf fractions, not interval
        widths — the two scores must genuinely differ on hierarchy data."""
        release = bulk_release(census_table, 10)
        numeric = certainty_penalty(release, census_table)
        hierarchical = certainty_penalty(
            release, census_table, use_hierarchies=True
        )
        assert numeric != hierarchical
        assert hierarchical > 0

    def test_describe_partition_uses_hierarchy_labels(self, census_table) -> None:
        release = bulk_release(census_table, 25)
        rendered = [
            describe_partition(partition, census_table.schema)
            for partition in release.partitions[:50]
        ]
        # Workclass column: every rendering is a hierarchy node label,
        # never a bare code interval.
        workclass_labels = {row[1] for row in rendered}
        hierarchy = census_table.schema.attribute("workclass").hierarchy
        assert hierarchy is not None
        valid_labels = {"*", "employed", "not-employed", "private-sector",
                        "self-employed", "government", "Private",
                        "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
                        "State-gov", "Local-gov", "Without-pay", "Never-worked"}
        assert workclass_labels <= valid_labels

    def test_l_diverse_release_on_income(self, census_table) -> None:
        anonymizer = RTreeAnonymizer(census_table, base_k=5, leaf_capacity=9)
        anonymizer.bulk_load(census_table)
        constraint = DistinctLDiversity(2, sensitive_index=0)
        release = anonymizer.anonymize(10, constraint=constraint)
        assert constraint.check_table(release)
        assert verify_release(release, census_table, 10) == []
