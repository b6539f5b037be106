"""Per-release privacy audits: structured evidence that every release is safe.

Aggregate counters show that releases *happened*; this module checks that
each one actually satisfied its privacy contract and records what it looked
like.  On every release publish the :class:`ReleaseAuditor` (when enabled)
builds one structured **audit record**: the k-anonymity verdict (via
:mod:`repro.privacy.kanonymity`), partition-occupancy and normalized
MBR-volume distributions, and the discernibility / certainty quality
metrics — the per-release trail that makes incremental quality drift
(paper Figure 11) visible in production instead of only in offline
benchmarks.

``strict`` mode turns the auditor into a gate: any failed audit raises
:class:`AuditFailure` at the publish site, so a release that would violate
k-anonymity never leaves the process.

The process-wide instance is :data:`repro.obs.AUDITOR`;
:meth:`repro.core.anonymizer.RTreeAnonymizer.anonymize` feeds it behind an
``if AUDITOR.enabled:`` guard (one boolean test while off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import AnonymizedTable
    from repro.dataset.table import Table

#: Version stamp carried by every audit record; bump on any key change.
AUDIT_SCHEMA_VERSION = 1

#: The exact key set of an audit record — tests pin this so downstream
#: consumers (dashboards, the bench trail) can rely on the schema.
AUDIT_RECORD_KEYS = frozenset(
    {
        "schema_version",
        "sequence",
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


class AuditFailure(RuntimeError):
    """A release failed its privacy audit (raised only in strict mode)."""

    def __init__(self, message: str, record: dict[str, object]) -> None:
        super().__init__(message)
        #: The full audit record of the failing release.
        self.record = record


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
    sequence: int = 0,
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
            "sequence": sequence,
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


class ReleaseAuditor:
    """Collects one audit record per release behind one enable switch.

    Publish sites guard with ``if auditor.enabled:`` and call
    :meth:`on_release`; the auditor appends the record (and raises
    :class:`AuditFailure` in strict mode when the release fails).  A
    ``reference`` table, when configured, upgrades every audit to the full
    release-vs-original verification.
    """

    __slots__ = ("enabled", "strict", "records", "_reference", "_sequence")

    def __init__(self) -> None:
        self.enabled = False
        self.strict = False
        #: Audit records in publish order.
        self.records: list[dict[str, object]] = []
        self._reference: "Table | None" = None
        self._sequence = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(
        self,
        strict: bool = False,
        reference: "Table | None" = None,
        reset: bool = True,
    ) -> None:
        """Switch auditing on; ``strict`` makes any failed audit raise."""
        if reset:
            self.reset()
        self.strict = strict
        self._reference = reference
        self.enabled = True

    def disable(self) -> None:
        """Switch auditing off; collected records remain readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every collected record (the enable switch is untouched)."""
        self.records.clear()
        self._sequence = 0

    # -- auditing ------------------------------------------------------------

    def on_release(
        self,
        release: "AnonymizedTable",
        k: int,
        base_k: int | None = None,
        original: "Table | None" = None,
    ) -> dict[str, object]:
        """Audit one published release; appends and returns the record.

        ``original`` overrides the configured reference table for this one
        release.  In strict mode a failing record raises
        :class:`AuditFailure` *after* being appended, so the trail still
        shows what was rejected.
        """
        record = audit_release(
            release,
            k,
            base_k=base_k,
            original=original if original is not None else self._reference,
            sequence=self._sequence,
        )
        self._sequence += 1
        self.records.append(record)
        if self.strict and not record["k_satisfied"]:
            problems = record["problems"]
            raise AuditFailure(
                f"release {record['sequence']} failed its privacy audit: "
                + "; ".join(problems),  # type: ignore[arg-type]
                record,
            )
        return record

    # -- recovery ------------------------------------------------------------

    @property
    def sequence(self) -> int:
        """The sequence number the *next* audited release will carry."""
        return self._sequence

    def resume_from(self, sequence: int) -> None:
        """Continue numbering from a checkpoint watermark after recovery.

        Records audited before the crash are gone (they live in memory),
        but post-recovery releases keep their pre-crash sequence positions
        so the evidence trail never reuses a number.
        """
        if sequence > self._sequence:
            self._sequence = int(sequence)

    # -- reads ---------------------------------------------------------------

    @property
    def latest(self) -> dict[str, object] | None:
        return self.records[-1] if self.records else None

    def failed_records(self) -> list[dict[str, object]]:
        """Every audit record whose release did not satisfy its contract."""
        return [
            record for record in self.records if not record["k_satisfied"]
        ]
