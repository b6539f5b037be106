"""Checkpoint snapshots: the R+-tree topology frozen at one WAL LSN.

A snapshot captures everything recovery needs to reconstruct a tree whose
releases are bit-identical to the pre-crash tree: the tree's configuration
(k, capacities, fanout, domain extents), the full cut-tree topology with
every leaf's records, the schema the anonymizer publishes under, and the
obs/audit watermarks (audit sequence, release count) so post-recovery
evidence trails continue numbering instead of restarting.

The on-disk format is a small binary envelope — magic, version, payload
length, CRC32 — around a JSON payload.  JSON keeps the topology diffable
and debuggable; the CRC (plus an atomic ``os.replace`` publish) makes a
half-written or bit-flipped snapshot loudly detectable rather than
quietly wrong.  MBRs are *not* serialized: they are recomputed from the
records on restore, which both shrinks the snapshot and guarantees they
can never disagree with the data.

Limitation (documented in docs/API.md): categorical attributes are
restored with their kind and coded domain but without their
:class:`~repro.hierarchy.tree.GeneralizationHierarchy` object, which only
affects *named* generalizations in exports — boxes, digests and k
guarantees are unaffected.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dataset.record import Record
from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.durability.errors import SnapshotCorruption
from repro.index.node import Cut, InternalNode, LeafNode, Node, Slot
from repro.index.rtree import RPlusTree
from repro.obs import OBS, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.split import SplitPolicy

SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1

#: Default snapshot file name inside a durability directory.
SNAPSHOT_NAME = "checkpoint.snap"

_HEADER = struct.Struct("<4sHQI")  # magic, version, payload length, crc32


@dataclass(frozen=True)
class Snapshot:
    """One decoded checkpoint: the restored tree plus its metadata."""

    path: Path
    lsn: int
    tree: RPlusTree
    schema: Schema
    base_k: int
    watermarks: dict[str, object]


# -- serialization -----------------------------------------------------------


def _slot_to_doc(slot: Slot) -> dict[str, object]:
    item = slot.inner
    if isinstance(item, Cut):
        return {
            "t": "C",
            "d": item.dimension,
            "v": item.value,
            "a": _slot_to_doc(item.left),
            "b": _slot_to_doc(item.right),
        }
    return _node_to_doc(item)


def _node_to_doc(node: Node) -> dict[str, object]:
    if node.is_leaf:
        leaf: LeafNode = node  # type: ignore[assignment]
        return {
            "t": "L",
            "r": [
                [record.rid, list(record.point), list(record.sensitive)]
                for record in leaf.records
            ],
        }
    internal: InternalNode = node  # type: ignore[assignment]
    return {"t": "N", "l": internal.level, "c": _slot_to_doc(internal.cuts)}


def serialize_tree(tree: RPlusTree) -> dict[str, object]:
    """The tree's configuration plus full topology as a JSON-ready dict."""
    return {
        "dimensions": tree.dimensions,
        "k": tree.k,
        "leaf_capacity": tree.leaf_capacity,
        "max_fanout": tree.max_fanout,
        "domain_extents": list(tree.domain_extents),
        "count": len(tree),
        "root": _node_to_doc(tree.root) if tree.root is not None else None,
    }


def _doc_to_slot(doc: dict[str, object]) -> "Node | Cut":
    if doc["t"] == "C":
        return Cut(
            int(doc["d"]),  # type: ignore[arg-type]
            float(doc["v"]),  # type: ignore[arg-type]
            Slot(_doc_to_slot(doc["a"])),  # type: ignore[arg-type]
            Slot(_doc_to_slot(doc["b"])),  # type: ignore[arg-type]
        )
    return _doc_to_node(doc)


def _doc_to_node(doc: dict[str, object]) -> Node:
    if doc["t"] == "L":
        leaf = LeafNode()
        leaf.records = [
            Record(int(rid), tuple(float(v) for v in point), tuple(sensitive))
            for rid, point, sensitive in doc["r"]  # type: ignore[union-attr]
        ]
        leaf.recompute_mbr()
        return leaf
    node = InternalNode(int(doc["l"]), Slot(_doc_to_slot(doc["c"])))  # type: ignore[arg-type]
    node.recompute_mbr()
    return node


def restore_tree(
    doc: dict[str, object], split_policy: "SplitPolicy | None" = None
) -> RPlusTree:
    """Rebuild an :class:`RPlusTree` from :func:`serialize_tree` output.

    The split policy is not serialized (policies are code, not data);
    callers that built the original tree with a non-default policy must
    pass the same one here for replay determinism.
    """
    tree = RPlusTree(
        dimensions=int(doc["dimensions"]),  # type: ignore[arg-type]
        k=int(doc["k"]),  # type: ignore[arg-type]
        leaf_capacity=int(doc["leaf_capacity"]),  # type: ignore[arg-type]
        max_fanout=int(doc["max_fanout"]),  # type: ignore[arg-type]
        domain_extents=[float(v) for v in doc["domain_extents"]],  # type: ignore[union-attr]
        split_policy=split_policy,
    )
    root_doc = doc.get("root")
    if root_doc is not None:
        root = _doc_to_node(root_doc)  # type: ignore[arg-type]
        tree._root = root
        tree._count = root.record_count()
    if len(tree) != int(doc["count"]):  # type: ignore[arg-type]
        raise ValueError(
            f"snapshot claims {doc['count']} records, topology holds {len(tree)}"
        )
    return tree


def serialize_schema(schema: Schema) -> dict[str, object]:
    return {
        "quasi_identifiers": [
            {
                "name": attribute.name,
                "kind": attribute.kind.value,
                "low": attribute.domain_low,
                "high": attribute.domain_high,
            }
            for attribute in schema.quasi_identifiers
        ],
        "sensitive": list(schema.sensitive),
    }


def restore_schema(doc: dict[str, object]) -> Schema:
    return Schema(
        tuple(
            Attribute(
                str(entry["name"]),
                AttributeKind(entry["kind"]),
                float(entry["low"]),
                float(entry["high"]),
            )
            for entry in doc["quasi_identifiers"]  # type: ignore[union-attr]
        ),
        sensitive=tuple(doc["sensitive"]),  # type: ignore[arg-type]
    )


# -- file I/O ----------------------------------------------------------------


def write_snapshot(
    path: str | Path,
    *,
    tree: RPlusTree,
    schema: Schema,
    lsn: int,
    watermarks: dict[str, object] | None = None,
) -> Path:
    """Serialize and atomically publish one checkpoint snapshot.

    The payload is written to a sibling temp file, fsynced, and
    ``os.replace``d into place so a crash mid-checkpoint leaves the
    previous snapshot intact rather than a torn one.
    """
    path = Path(path)
    document = {
        "version": SNAPSHOT_VERSION,
        "lsn": lsn,
        "base_k": tree.k,
        "tree": serialize_tree(tree),
        "schema": serialize_schema(schema),
        "watermarks": dict(watermarks or {}),
    }
    with span("checkpoint.write", lsn=lsn):
        payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
        envelope = (
            _HEADER.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(payload), zlib.crc32(payload)
            )
            + payload
        )
        temp = path.with_suffix(path.suffix + ".tmp")
        with open(temp, "wb") as handle:
            handle.write(envelope)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    if OBS.enabled:
        OBS.count("checkpoint.snapshots")
        OBS.count("checkpoint.bytes", len(envelope))
    return path


def read_snapshot(
    path: str | Path, *, split_policy: "SplitPolicy | None" = None
) -> Snapshot:
    """Validate and decode a snapshot; raises :class:`SnapshotCorruption`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise SnapshotCorruption(path, f"unreadable: {error}")
    if len(data) < _HEADER.size:
        raise SnapshotCorruption(path, "file shorter than the snapshot header")
    magic, version, length, crc = _HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorruption(path, f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruption(path, f"unsupported snapshot version {version}")
    payload = data[_HEADER.size : _HEADER.size + length]
    if len(payload) != length:
        raise SnapshotCorruption(
            path, f"payload truncated ({len(payload)} of {length} bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotCorruption(path, "payload CRC mismatch")
    try:
        document = json.loads(payload.decode("utf-8"))
        tree = restore_tree(document["tree"], split_policy)
        schema = restore_schema(document["schema"])
        snapshot = Snapshot(
            path=path,
            lsn=int(document["lsn"]),
            tree=tree,
            schema=schema,
            base_k=int(document["base_k"]),
            watermarks=dict(document.get("watermarks", {})),
        )
    except SnapshotCorruption:
        raise
    except Exception as error:  # noqa: BLE001 - any decode defect is corruption
        raise SnapshotCorruption(path, f"undecodable payload: {error}")
    return snapshot
