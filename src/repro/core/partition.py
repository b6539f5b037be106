"""Partitions and anonymized tables.

A :class:`Partition` is one equivalence class of a k-anonymous release: a
group of records that all publish the same generalized quasi-identifier
``box``.  An :class:`AnonymizedTable` is an ordered collection of partitions
plus the schema; it is what every quality metric, query evaluator and
privacy verifier consumes, regardless of which algorithm (R+-tree,
Mondrian, compacted or not) produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from repro.dataset.record import Record
from repro.dataset.schema import Schema
from repro.geometry.box import Box
from repro.obs import span


@dataclass(frozen=True)
class Partition:
    """One equivalence class: records plus their published generalization.

    ``box`` is what the data recipient sees for every record in the group —
    a closed interval per quasi-identifier attribute.  Invariant: the box
    contains every member record's point (the box may be *looser* than the
    minimum bounding box; compaction is what tightens it).
    """

    records: tuple[Record, ...]
    box: Box

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a partition must contain at least one record")
        for record in self.records:
            if not self.box.contains_point(record.point):
                raise ValueError(
                    f"partition box {self.box} does not contain record "
                    f"{record.rid} at {record.point}"
                )

    @classmethod
    def trusted(cls, records: tuple[Record, ...], box: Box) -> "Partition":
        """Construct without the containment check.

        For internal callers whose box is *derived from the records* (an
        MBR, a region that routed them, a union of their leaves' boxes), so
        containment holds by construction.  External callers should use the
        validating constructor.
        """
        partition = object.__new__(cls)
        object.__setattr__(partition, "records", records)
        object.__setattr__(partition, "box", box)
        return partition

    def __len__(self) -> int:
        return len(self.records)

    @property
    def size(self) -> int:
        return len(self.records)

    def mbr(self) -> Box:
        """The minimum bounding box of the member records (the compacted box)."""
        return Box.from_points(record.point for record in self.records)

    def with_box(self, box: Box) -> "Partition":
        """A copy of this partition publishing a different box."""
        return Partition(self.records, box)

    def rids(self) -> frozenset[int]:
        """Member record ids (used by the multi-release attack simulator)."""
        return frozenset(record.rid for record in self.records)


class AnonymizedTable:
    """An ordered set of partitions — one k-anonymous release of a table.

    Immutable, so its whole-table sums are computed once, on first read.
    """

    def __init__(self, schema: Schema, partitions: Sequence[Partition]) -> None:
        if not partitions:
            raise ValueError("an anonymized table needs at least one partition")
        expected = schema.dimensions
        for partition in partitions:
            if partition.box.dimensions != expected:
                raise ValueError(
                    f"partition box has {partition.box.dimensions} dimensions, "
                    f"schema expects {expected}"
                )
        self._schema = schema
        self._partitions = tuple(partitions)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return self._partitions

    def __len__(self) -> int:
        """Number of partitions (use :attr:`record_count` for records)."""
        return len(self._partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._partitions)

    @cached_property
    def record_count(self) -> int:
        return sum([len(partition.records) for partition in self._partitions])

    @cached_property
    def k_effective(self) -> int:
        """The smallest partition size — the strongest k this table satisfies."""
        return min([len(partition.records) for partition in self._partitions])

    def partition_of(self, rid: int) -> Partition:
        """The partition containing a record id (KeyError when absent)."""
        for partition in self._partitions:
            for record in partition.records:
                if record.rid == rid:
                    return partition
        raise KeyError(rid)

    def rid_to_partition(self) -> dict[int, int]:
        """Map record id -> partition index, for bulk correlation analyses."""
        mapping: dict[int, int] = {}
        for index, partition in enumerate(self._partitions):
            for record in partition.records:
                mapping[record.rid] = index
        return mapping

    def rows(self) -> Iterator[tuple[Box, tuple[object, ...]]]:
        """The published rows: each record's generalized box plus sensitive values.

        This is the release format of Figure 1(b): quasi-identifiers
        replaced by intervals, sensitive attributes passed through.
        """
        for partition in self._partitions:
            for record in partition.records:
                yield partition.box, record.sensitive

    def summary(self) -> str:
        """A short human-readable description (for examples and the CLI)."""
        sizes = [len(partition) for partition in self._partitions]
        return (
            f"{self.record_count} records in {len(self._partitions)} partitions, "
            f"sizes {min(sizes)}..{max(sizes)} (k-effective {self.k_effective})"
        )


@dataclass(frozen=True)
class Release:
    """One published release with its evidence attached.

    Built by :meth:`repro.core.anonymizer.RTreeAnonymizer.release`.
    ``audit`` is the structured privacy-audit record of exactly this
    ``table`` (same shape as :func:`repro.obs.audit.audit_release`) and
    ``digest`` its :func:`release_digest`.  ``epoch`` is the service epoch
    the release reflects; it is ``None`` outside an
    :class:`~repro.serve.AnonymizerService`.
    """

    table: AnonymizedTable
    audit: Mapping[str, object]
    digest: str
    k: int
    strategy: str
    epoch: int | None = None

    @property
    def record_count(self) -> int:
        return self.table.record_count

    @property
    def partition_count(self) -> int:
        return len(self.table.partitions)

    @property
    def k_satisfied(self) -> bool:
        return bool(self.audit["k_satisfied"])


def digest_fragment(partition: Partition) -> bytes:
    """The bytes one partition contributes to :func:`release_digest`.

    The repr of the box's low/high tuples followed by the repr of the
    sorted member rids.  The rids are sorted straight from the records: a
    record id names one record, so the sorted list is the sorted member
    set and no set is built.
    """
    box = partition.box
    rids = sorted([record.rid for record in partition.records])
    return (repr((tuple(box.lows), tuple(box.highs))) + repr(rids)).encode()


def fragments_digest(fragments: Iterable[bytes]) -> str:
    """The sha256 hex digest of the partitions' fragments, in order."""
    return hashlib.sha256(b"".join(fragments)).hexdigest()


def release_digest(table: AnonymizedTable) -> str:
    """A sha256 fingerprint of a release's published content.

    Hashes every partition's :func:`digest_fragment` (box and sorted
    member rids), in partition order.  Two releases digest equal iff they
    publish the same partitions with the same boxes in the same order —
    the property the parallel engine's determinism guarantee promises and
    the serial/parallel differential checks (`repro anonymize` prints this
    digest so CI can compare runs across worker counts textually).

    This is the full recompute; a release of unchanged leaf runs reuses
    their fragments instead (:meth:`RTreeAnonymizer.release
    <repro.core.anonymizer.RTreeAnonymizer.release>`).
    """
    with span("core.digest"):
        return fragments_digest(
            [digest_fragment(partition) for partition in table.partitions]
        )
