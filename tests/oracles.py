"""Scalar reference implementations of the numpy production paths.

Each function here is the plain-Python form of an operation whose only
production path is a numpy kernel: the per-record ``struct`` page decoder,
the ``hilbert_key(quantize(...))`` sort (of a whole file, or of one
sharded-scan slice) and the exhaustive NCP split search with the margin
it scores — plus the record-list forms of the release path (the subtree
scan and the per-record compaction) that production replaced with runs
of whole leaves, and the leaves' region boxes that compare tree shapes
and box the uncompacted releases the golden digests still pin.  They
exist only so the differential suites can hold the production code to
them record for record; nothing in ``src`` calls them.  The release
audit's plain-Python loops stay here too (:func:`audit_release`), to
hold the numpy distributions to them figure for figure.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.leafscan import Constraint, leaf_scan
from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.io import _HEADER, RecordFileReader
from repro.dataset.record import Record
from repro.index.bulk import DEFAULT_HILBERT_BITS
from repro.geometry.box import Box
from repro.index.hilbert import hilbert_key, quantize
from repro.index.node import Cut, InternalNode, LeafNode
from repro.index.split import SplitDecision

if TYPE_CHECKING:
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.index.rtree import RPlusTree
    from repro.dataset.table import Table


def read_records(
    path: str | Path,
    batch_size: int = 8_192,
    first_rid: int = 0,
    start: int = 0,
    count: int | None = None,
) -> Iterator[Record]:
    """File-position records, one ``struct.iter_unpack`` row at a time."""
    reader = RecordFileReader(path)
    unpacker = struct.Struct(f"<{reader.dimensions}i")
    remaining = len(reader) - start if count is None else count
    rid = first_rid + start
    with open(path, "rb") as handle:
        handle.seek(_HEADER.size + start * unpacker.size)
        while remaining > 0:
            want = min(remaining, batch_size)
            chunk = handle.read(want * unpacker.size)
            if len(chunk) != want * unpacker.size:
                raise ValueError(f"{path}: short read at record {rid}")
            for values in unpacker.iter_unpack(chunk):
                yield Record(rid, tuple(float(value) for value in values))
                rid += 1
            remaining -= want


def _key(
    point: Sequence[float],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int,
) -> int:
    return hilbert_key(quantize(point, lows, highs, bits), bits)


def hilbert_ordered(
    records: Sequence[Record],
    lows: Sequence[float],
    highs: Sequence[float],
    bits: int = DEFAULT_HILBERT_BITS,
) -> list[Record]:
    """Sort by ``(Hilbert key, rid)``: the bulk-load ablation's order and
    the stream a sharded file load feeds the loader at any worker count."""
    return sorted(
        records,
        key=lambda record: (_key(record.point, lows, highs, bits), record.rid),
    )


def exhaustive_ncp_split_small(
    records: Sequence[Record],
    min_count: int,
    domain_extents: Sequence[float],
    weights: Sequence[float] | None,
    dimensions: Sequence[int],
) -> SplitDecision | None:
    """Pure-Python exhaustive boundary search.

    Same objective and same result set as
    :func:`repro.index.split.exhaustive_ncp_split`: per dimension, one sort
    plus two incremental sweeps maintain the prefix / suffix normalized
    margins in O(n·d), so every legal boundary is scored in plain Python.
    """
    total = len(records)
    if total < 2 * min_count:
        return None
    points = [record.point for record in records]
    inverse = [
        1.0 / extent if extent > 0 else 0.0 for extent in domain_extents
    ]
    if weights is not None:
        inverse = [i * w for i, w in zip(inverse, weights)]
    best: SplitDecision | None = None
    best_score = float("inf")
    for dimension in dimensions:
        order = sorted(range(total), key=lambda i: points[i][dimension])
        values = [points[i][dimension] for i in order]
        if values[0] == values[-1]:
            continue
        prefix = _running_margins(points, order, inverse)
        suffix = _running_margins(points, order[::-1], inverse)[::-1]
        for boundary in range(min_count - 1, total - min_count):
            if values[boundary] == values[boundary + 1]:
                continue
            left_count = boundary + 1
            score = left_count * prefix[boundary] + (total - left_count) * suffix[
                boundary + 1
            ]
            if score < best_score:
                best_score = score
                best = SplitDecision(
                    dimension, values[boundary], left_count, total - left_count
                )
    return best


def _running_margins(
    points: Sequence[Sequence[float]],
    order: Sequence[int],
    inverse: Sequence[float],
) -> list[float]:
    """``out[i]`` = normalized margin of the MBR of ``points[order[:i+1]]``.

    Maintains per-dimension minima/maxima and the running margin sum,
    updating only the dimensions a new point actually extends.
    """
    first = points[order[0]]
    mins = list(first)
    maxs = list(first)
    margin = 0.0
    out = [0.0] * len(order)
    for position in range(1, len(order)):
        point = points[order[position]]
        for dimension, value in enumerate(point):
            if value < mins[dimension]:
                margin += (mins[dimension] - value) * inverse[dimension]
                mins[dimension] = value
            elif value > maxs[dimension]:
                margin += (value - maxs[dimension]) * inverse[dimension]
                maxs[dimension] = value
        out[position] = margin
    return out


def group_margin(
    records: Sequence[Record],
    domain_extents: Sequence[float],
    weights: Sequence[float] | None = None,
) -> float:
    """Normalized (optionally weighted) margin of a record group's MBR.

    The per-record NCP the certainty metric charges (Definition 4), i.e.
    each side's term of the objective the exhaustive split minimizes.
    """
    if not records:
        return 0.0
    box = Box.from_points(record.point for record in records)
    total = 0.0
    for dimension, domain_extent in enumerate(domain_extents):
        if domain_extent <= 0:
            continue
        extent = box.extent(dimension) / domain_extent
        if weights is not None:
            extent *= weights[dimension]
        total += extent
    return total


def subtree_scan(
    tree: "RPlusTree",
    k1: int,
    constraint: Constraint | None = None,
) -> list[list[Record]]:
    """The cut-aligned subtree scan over copied record lists.

    Same rule as :func:`repro.core.leafscan.subtree_scan`: walk the cut
    hierarchy depth-first; emit a subtree whose record count plus the
    carry lands in ``[k1, 2*k1)`` and satisfies the constraint; recurse
    into larger subtrees; carry smaller ones.  Counts come from a
    recursive count per visited cut and groups are concatenated record
    lists.
    """
    if k1 < 1:
        raise ValueError("granularity k1 must be at least 1")
    if tree.root is None or len(tree) < k1:
        raise ValueError(
            f"cannot form a {k1}-anonymous release from {len(tree)} records"
        )

    def satisfied(records: list[Record]) -> bool:
        if len(records) < k1:
            return False
        return constraint is None or constraint(records)

    groups: list[list[Record]] = []
    carry: list[Record] = []

    def records_under(item: object) -> list[Record]:
        if isinstance(item, LeafNode):
            return list(item.records)
        if isinstance(item, InternalNode):
            return records_under(item.cuts.inner)
        assert isinstance(item, Cut)
        return records_under(item.left.inner) + records_under(item.right.inner)

    def count_under(item: object) -> int:
        if isinstance(item, LeafNode):
            return len(item.records)
        if isinstance(item, InternalNode):
            return count_under(item.cuts.inner)
        assert isinstance(item, Cut)
        return count_under(item.left.inner) + count_under(item.right.inner)

    def walk(item: object) -> None:
        nonlocal carry
        if isinstance(item, InternalNode):
            walk(item.cuts.inner)
            return
        if isinstance(item, LeafNode):
            candidate = carry + list(item.records)
            if satisfied(candidate):
                groups.append(candidate)
                carry = []
            else:
                carry = candidate
            return
        assert isinstance(item, Cut)
        total = len(carry) + count_under(item)
        if total < k1:
            carry.extend(records_under(item))
            return
        if total < 2 * k1:
            candidate = carry + records_under(item)
            if satisfied(candidate):
                groups.append(candidate)
                carry = []
            else:
                carry = candidate
            return
        walk(item.left.inner)
        walk(item.right.inner)

    walk(tree.root)
    if carry:
        if satisfied(carry):
            groups.append(carry)
        elif groups:
            groups[-1].extend(carry)
        else:
            raise ValueError(
                "the constraint cannot be satisfied even by a single "
                "partition holding every record"
            )
    return groups


def release_partitions(
    anonymizer: "RTreeAnonymizer",
    k: int,
    compacted: bool,
    constraint: Constraint | None = None,
    strategy: str = "subtree",
) -> list[Partition]:
    """A leaf-aligned release built record by record.

    Groups come from :func:`subtree_scan` (or the record-list
    :func:`~repro.core.leafscan.leaf_scan`); a compacted partition is
    boxed by ``Box.from_points`` over its records, as production
    publishes it.  An uncompacted one is boxed by the union of the
    :func:`leaf_regions` its records consumed, found by walking leaf
    sizes alongside the groups: production no longer publishes that
    shape, but its golden digests pin the tree's cut values.
    """
    tree = anonymizer.tree
    leaves = tree.leaves()
    if strategy == "subtree":
        groups = subtree_scan(tree, k, constraint)
    else:
        assert strategy == "sequential", strategy
        groups = leaf_scan([leaf.records for leaf in leaves], k, constraint)
    if compacted:
        return [
            Partition(tuple(group), Box.from_points(r.point for r in group))
            for group in groups
        ]
    regions = leaf_regions(anonymizer)
    partitions = []
    cursor = 0
    for group in groups:
        consumed = 0
        boxes: list[Box] = []
        while consumed < len(group):
            boxes.append(regions[cursor])
            consumed += len(leaves[cursor].records)
            cursor += 1
        box = boxes[0]
        for extra in boxes[1:]:
            box = box.union(extra)
        partitions.append(Partition(tuple(group), box))
    return partitions


def leaf_regions(anonymizer: "RTreeAnonymizer") -> list[Box]:
    """The leaves' disjoint region boxes, in leaf order.

    The schema's domain box pushed down through the cut trees: each cut
    clamps the high of its left side and the low of its right side in
    its dimension.  The regions tile the domain, so they name the tree's
    shape — its cut values included — and not just its leaves' records.
    """
    schema = anonymizer.schema
    regions: list[Box] = []

    def walk(
        item: object, lows: tuple[float, ...], highs: tuple[float, ...]
    ) -> None:
        if isinstance(item, LeafNode):
            regions.append(Box(lows, highs))
        elif isinstance(item, InternalNode):
            walk(item.cuts.inner, lows, highs)
        else:
            assert isinstance(item, Cut)
            dimension, value = item.dimension, item.value
            left_highs = list(highs)
            left_highs[dimension] = min(value, highs[dimension])
            right_lows = list(lows)
            right_lows[dimension] = max(value, lows[dimension])
            walk(item.left.inner, lows, tuple(left_highs))
            walk(item.right.inner, tuple(right_lows), highs)

    if anonymizer.tree.root is not None:
        walk(anonymizer.tree.root, schema.domain_lows(), schema.domain_highs())
    return regions


def _distribution(values: Sequence[float]) -> dict[str, object]:
    """min/max/mean plus power-of-two buckets, one value at a time."""
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
    release: AnonymizedTable,
    k: int,
    base_k: int | None = None,
    original: "Table | None" = None,
) -> dict[str, object]:
    """:func:`repro.obs.audit.audit_release` as plain-Python passes.

    One pass per figure, each box measured by the attribute domains one
    at a time (a zero-extent attribute contributes no factor), and the
    distributions built by :func:`_distribution`.
    """
    from repro.metrics.certainty import certainty_penalty
    from repro.metrics.discernibility import discernibility_penalty
    from repro.obs.audit import AUDIT_SCHEMA_VERSION
    from repro.privacy.kanonymity import is_k_anonymous, verify_release

    schema = release.schema
    volumes = []
    for partition in release.partitions:
        fraction = 1.0
        box = partition.box
        for low, high, attribute in zip(box.lows, box.highs, schema.quasi_identifiers):
            full = attribute.domain_extent
            if full > 0:
                fraction *= (high - low) / full
        volumes.append(fraction)
    sizes = [float(len(partition)) for partition in release.partitions]
    k_satisfied = is_k_anonymous(release, k)
    if original is not None:
        problems = verify_release(release, original, k)
        certainty: float | None = certainty_penalty(release, original)
    else:
        problems = (
            []
            if k_satisfied
            else [f"smallest partition holds {release.k_effective} < k={k} records"]
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
