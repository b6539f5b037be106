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
    """min/max/mean plus power-of-two buckets, like a registry histogram."""
    if not values:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0, "buckets": {}}
    counts: dict[int, int] = {}
    for value in values:
        exponent = int(value).bit_length() if value >= 1 else 0
        counts[exponent] = counts.get(exponent, 0) + 1
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "buckets": {
            f"<=2^{exponent}": counts[exponent] for exponent in sorted(counts)
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

    Each box's volume is its partition's
    :meth:`~repro.core.partition.Partition.volume`, which the partition
    keeps: a release that reuses unchanged runs measures only its new
    partitions.
    """
    from repro.metrics.certainty import certainty_penalty
    from repro.metrics.discernibility import discernibility_penalty
    from repro.obs import span
    from repro.privacy.kanonymity import is_k_anonymous, verify_release

    with span("obs.audit", k=k):
        schema = release.schema
        volumes = [partition.volume(schema) for partition in release.partitions]
        sizes = [float(len(partition)) for partition in release.partitions]
        k_satisfied = is_k_anonymous(release, k)
        if original is not None:
            problems = verify_release(release, original, k)
            certainty: float | None = certainty_penalty(release, original)
        else:
            problems = (
                []
                if k_satisfied
                else [
                    f"smallest partition holds {release.k_effective} "
                    f"< k={k} records"
                ]
            )
            certainty = None
        discernibility = discernibility_penalty(release)
        record_count = release.record_count
        return {
            "schema_version": AUDIT_SCHEMA_VERSION,
            "k_requested": k,
            "k_effective": release.k_effective,
            "k_satisfied": k_satisfied and not problems,
            "base_k": base_k,
            "record_count": record_count,
            "partition_count": len(release.partitions),
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
