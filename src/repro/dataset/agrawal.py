"""The Agrawal et al. synthetic data generator.

The paper's scaling experiments (§5.2) use "the generator introduced in
[1]" — R. Agrawal, S. Ghosh, T. Imielinski and A. Swami, *Database mining:
a performance perspective* (TKDE 1993) — to produce 100 million nine-
attribute records (*salary, commission, age, education level, car, zipcode,
house value, house years, loan*), 36 bytes each.

This module reimplements that generator from the published description,
including its characteristic functional dependencies:

* ``commission`` is zero when ``salary >= 75,000``, otherwise uniform in
  ``[10,000, 75,000]``;
* ``hvalue`` (house value) depends on ``zipcode``: houses in zipcode ``z``
  are worth ``uniform(0.5, 1.5) * 100,000 * k_z`` where ``k_z`` depends on
  the zipcode (we use ``k_z = z + 1`` for the nine zipcodes ``0..8``, as in
  the original);
* everything else is independent uniform.

These dependencies matter for reproduction fidelity: they give the data the
low-dimensional structure (salary/commission anticorrelation, zip/hvalue
correlation) that spatial partitioning exploits.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.record import Record
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table

#: Attribute order matches the paper's listing.
AGRAWAL_ATTRIBUTES = (
    "salary",
    "commission",
    "age",
    "elevel",
    "car",
    "zipcode",
    "hvalue",
    "hyears",
    "loan",
)

_SALARY_LOW, _SALARY_HIGH = 20_000, 150_000
_COMMISSION_LOW, _COMMISSION_HIGH = 10_000, 75_000
_COMMISSION_CUTOFF = 75_000
_AGE_LOW, _AGE_HIGH = 20, 80
_ELEVELS = 5
_CARS = 20
_ZIPCODES = 9
_HVALUE_HIGH = int(1.5 * 100_000 * _ZIPCODES)
_HYEARS_LOW, _HYEARS_HIGH = 1, 30
_LOAN_HIGH = 500_000


def agrawal_schema() -> Schema:
    """The nine-attribute Agrawal schema, integer-coded."""
    return Schema(
        (
            Attribute.numeric("salary", _SALARY_LOW, _SALARY_HIGH),
            Attribute.numeric("commission", 0, _COMMISSION_HIGH),
            Attribute.numeric("age", _AGE_LOW, _AGE_HIGH),
            Attribute.numeric("elevel", 0, _ELEVELS - 1),
            Attribute.numeric("car", 1, _CARS),
            Attribute.numeric("zipcode", 0, _ZIPCODES - 1),
            Attribute.numeric("hvalue", 0, _HVALUE_HIGH),
            Attribute.numeric("hyears", _HYEARS_LOW, _HYEARS_HIGH),
            Attribute.numeric("loan", 0, _LOAN_HIGH),
        )
    )


class AgrawalGenerator:
    """Reproducible generator of Agrawal et al. records."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    @property
    def schema(self) -> Schema:
        return agrawal_schema()

    def generate_points(self, count: int, stream_offset: int = 0) -> np.ndarray:
        """Generate ``count`` records as a ``(count, 9)`` int64 array."""
        rng = np.random.default_rng((self._seed, stream_offset))
        salary = rng.integers(_SALARY_LOW, _SALARY_HIGH + 1, count)
        commission = np.where(
            salary >= _COMMISSION_CUTOFF,
            0,
            rng.integers(_COMMISSION_LOW, _COMMISSION_HIGH + 1, count),
        )
        age = rng.integers(_AGE_LOW, _AGE_HIGH + 1, count)
        elevel = rng.integers(0, _ELEVELS, count)
        car = rng.integers(1, _CARS + 1, count)
        zipcode = rng.integers(0, _ZIPCODES, count)
        hvalue = (
            rng.uniform(0.5, 1.5, count) * 100_000 * (zipcode + 1)
        ).astype(np.int64)
        hyears = rng.integers(_HYEARS_LOW, _HYEARS_HIGH + 1, count)
        loan = rng.integers(0, _LOAN_HIGH + 1, count)
        return np.column_stack(
            [salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan]
        )

    def generate(self, count: int, stream_offset: int = 0, first_rid: int = 0) -> Table:
        """Generate ``count`` records as a :class:`Table`."""
        points = self.generate_points(count, stream_offset)
        table = Table(self.schema)
        for offset, row in enumerate(points):
            table.append(Record(first_rid + offset, tuple(float(v) for v in row)))
        return table

    def write_file(self, path: str, count: int, batch_size: int = 65_536) -> int:
        """Stream ``count`` records straight to a record file.

        Memory use stays bounded by ``batch_size`` regardless of ``count`` —
        this is how arbitrarily large inputs are staged for the out-of-core
        experiments without materializing them.
        """
        from repro.dataset.io import RecordFileWriter

        with RecordFileWriter(path, len(AGRAWAL_ATTRIBUTES)) as writer:
            written = 0
            offset = 0
            while written < count:
                size = min(batch_size, count - written)
                writer.write_batch(
                    self.generate_points(size, stream_offset=offset)
                )
                written += size
                offset += 1
            return written


def make_agrawal_table(count: int, seed: int = 0) -> Table:
    """Convenience: a fresh Agrawal table of ``count`` records."""
    return AgrawalGenerator(seed).generate(count)
