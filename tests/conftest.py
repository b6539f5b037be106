"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import AnonymizedTable
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table


@pytest.fixture
def schema3() -> Schema:
    """A small three-attribute numeric schema over [0, 100]^3."""
    return Schema(
        (
            Attribute.numeric("a", 0, 100),
            Attribute.numeric("b", 0, 100),
            Attribute.numeric("c", 0, 100),
        ),
        sensitive=("diagnosis",),
    )


def random_records(
    count: int, dimensions: int = 3, seed: int = 0, low: int = 0, high: int = 100
) -> list[Record]:
    """Reproducible integer-coded records with a one-column payload."""
    rng = random.Random(seed)
    diagnoses = ("flu", "anemia", "cancer", "whiplash")
    return [
        Record(
            rid,
            tuple(float(rng.randint(low, high)) for _ in range(dimensions)),
            (diagnoses[rng.randrange(len(diagnoses))],),
        )
        for rid in range(count)
    ]


def bulk_release(table: Table, k: int, base_k: int = 5) -> AnonymizedTable:
    """Bulk-load ``table`` into a fresh anonymizer and emit its k-release."""
    anonymizer = RTreeAnonymizer(table, base_k=base_k)
    anonymizer.bulk_load(table)
    return anonymizer.anonymize(k)


@pytest.fixture
def small_table(schema3: Schema) -> Table:
    """200 random records over the three-attribute schema."""
    return Table(schema3, random_records(200, seed=1))


@pytest.fixture
def medium_table(schema3: Schema) -> Table:
    """2,000 random records over the three-attribute schema."""
    return Table(schema3, random_records(2_000, seed=2))
