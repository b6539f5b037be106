"""Per-release privacy audits: structured evidence that every release is safe.

Aggregate counters show that releases *happened*; this module checks that
each one actually satisfied its privacy contract and records what it looked
like.  :func:`audit_release` builds one structured **audit record** per
release: the k-anonymity verdict (via :mod:`repro.privacy.kanonymity`),
partition-occupancy and normalized MBR-volume distributions, and the
discernibility / certainty quality metrics — the per-release trail that
makes incremental quality drift (paper Figure 11) visible in production
instead of only in offline benchmarks.

Every release is k-anonymous on its own (paper §3, Lemma 1), so its audit
is evidence about that one release and lives on it:
:meth:`repro.core.anonymizer.RTreeAnonymizer.release` audits the table it
publishes and returns the record as :attr:`repro.core.partition.Release.audit`.
A caller that wants a publish to fail on a bad audit checks
``release.k_satisfied``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import AnonymizedTable
    from repro.dataset.table import Table

#: Version stamp carried by every audit record; bump on any key change.
AUDIT_SCHEMA_VERSION = 2

#: The exact key set of an audit record — tests pin this so downstream
#: consumers (dashboards, the bench trail) can rely on the schema.
AUDIT_RECORD_KEYS = frozenset(
    {
        "schema_version",
        "k_requested",
        "k_effective",
        "k_satisfied",
        "base_k",
        "record_count",
        "partition_count",
        "occupancy",
        "mbr_volume",
        "discernibility",
        "discernibility_per_record",
        "certainty",
        "certainty_per_record",
        "problems",
    }
)


def _distribution(values: Sequence[float]) -> dict[str, object]:
    """min/max/mean plus power-of-two buckets, like a registry histogram.

    A value's bucket is the bit length of its integer part (0 below 1),
    which ``frexp`` of the floor gives at C speed; the mean keeps the
    built-in ``sum`` over ``values`` in order, so every figure equals the
    plain-Python loop's (``tests.oracles.audit_release``).
    """
    if not values:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0, "buckets": {}}
    array = np.array(values, dtype=np.float64)
    exponents = np.where(array >= 1, np.frexp(np.floor(array))[1], 0)
    levels, counts = np.unique(exponents, return_counts=True)
    return {
        "count": len(values),
        "min": float(array.min()),
        "max": float(array.max()),
        "mean": sum(values) / len(values),
        "buckets": {
            f"<=2^{exponent}": count
            for exponent, count in zip(levels.tolist(), counts.tolist())
        },
    }


def audit_release(
    release: "AnonymizedTable",
    k: int,
    base_k: int | None = None,
    original: "Table | None" = None,
) -> dict[str, object]:
    """Build one audit record for a published release.

    Always computed: the k verdict, occupancy and MBR-volume distributions,
    and discernibility.  When the ``original`` table is supplied the record
    additionally carries the certainty penalty and the full
    :func:`repro.privacy.kanonymity.verify_release` problem list (record
    conservation, identity, box containment); without it, ``problems``
    reports only k-floor violations.

    One pass reads the partition sizes, which give the record count, the
    smallest partition (the k verdict) and discernibility; one more reads
    the volumes.  Each box's volume is its partition's
    :meth:`~repro.core.partition.Partition.volume`, which the partition
    keeps: a release that reuses unchanged runs measures only its new
    partitions.
    """
    from repro.metrics.certainty import certainty_penalty
    from repro.obs import span
    from repro.privacy.kanonymity import verify_release

    with span("obs.audit", k=k):
        schema = release.schema
        partitions = release.partitions
        sizes = [len(partition.records) for partition in partitions]
        volumes = [partition.volume(schema) for partition in partitions]
        counts = np.array(sizes, dtype=np.int64)
        record_count = sum(sizes)
        k_effective = min(sizes)
        k_satisfied = k_effective >= k
        if original is not None:
            problems = verify_release(release, original, k)
            certainty: float | None = certainty_penalty(release, original)
        else:
            problems = (
                []
                if k_satisfied
                else [f"smallest partition holds {k_effective} < k={k} records"]
            )
            certainty = None
        discernibility = int(np.dot(counts, counts))
        return {
            "schema_version": AUDIT_SCHEMA_VERSION,
            "k_requested": k,
            "k_effective": k_effective,
            "k_satisfied": k_satisfied and not problems,
            "base_k": base_k,
            "record_count": record_count,
            "partition_count": len(partitions),
            # The sizes' mean in int arithmetic: every partial sum is an
            # integer below 2**53, so it equals the float sum's exactly.
            "occupancy": _distribution(sizes),
            "mbr_volume": _distribution(volumes),
            "discernibility": discernibility,
            "discernibility_per_record": discernibility / record_count,
            "certainty": certainty,
            "certainty_per_record": (
                certainty / record_count if certainty is not None else None
            ),
            "problems": problems,
        }
