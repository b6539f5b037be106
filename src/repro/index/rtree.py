"""The dynamic, non-overlapping R+-tree over point data.

This is the index whose occupancy invariant is the paper's central insight:
**every leaf holds between ``k`` and ``c*k`` records**, so the leaf-level
partitioning of the data is k-anonymous by construction, and every standard
index operation — one-record insert, delete, range search — doubles as an
anonymization-maintenance operation.

Structural model (see :mod:`repro.index.node`): internal nodes remember the
binary cuts that produced their children, so sibling regions are disjoint
and tile the parent region, points route deterministically, and splitting an
overflowing internal node is just promoting its root cut.  Leaf depth is
uniform (all leaves are level 0 and grow/shrink in lockstep with the root),
which the multi-granular release machinery (§3) relies on.

Occupancy corner cases, all k-anonymity-safe:

* a **root leaf** may hold fewer than ``k`` records while the whole data set
  is smaller than ``k`` (no k-anonymous release exists then anyway — the
  anonymizer refuses to emit);
* a leaf may exceed ``c*k`` records when *no legal cut exists* — e.g. all
  records share one point, or duplicates are so heavy that no boundary
  leaves ``k`` on both sides.  Over-full is privacy-safe; only the minimum
  matters.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dataset.record import Record
from repro.geometry.box import Box
from repro.index.leaf_store import LeafStore
from repro.index.node import (
    Cut,
    InternalNode,
    LeafNode,
    Node,
    Slot,
    fresh_version,
    make_cut,
    route_cut,
    touch_path,
)
from repro.index.split import MinMarginSplitPolicy, SplitPolicy, point_matrix
from repro.obs import OBS, TRACE, span

#: Default leaf capacity multiplier: leaves hold between k and DEFAULT_CAPACITY_FACTOR * k.
DEFAULT_CAPACITY_FACTOR = 3

#: Default maximum internal fanout (the ``m`` of §3).
DEFAULT_MAX_FANOUT = 8


def _bounding_box(records: Sequence[Record], points: np.ndarray) -> Box:
    """``Box.from_points`` of the records, located through their matrix.

    ``argmin``/``argmax`` find the first row that reaches each extreme,
    and the bound is that record's own value, as ``from_points`` keeps
    it: equal by ``repr`` (``np.min`` may pick ``-0.0`` over an earlier
    ``0.0``) and sharing the records' float objects.
    """
    lows = points.argmin(axis=0).tolist()
    highs = points.argmax(axis=0).tolist()
    return Box(
        tuple(float(records[row].point[d]) for d, row in enumerate(lows)),
        tuple(float(records[row].point[d]) for d, row in enumerate(highs)),
    )


class RPlusTree:
    """A non-overlapping multidimensional index with a k-anonymity occupancy floor.

    Parameters
    ----------
    dimensions:
        Number of quasi-identifier attributes.
    k:
        Minimum records per leaf — the anonymity parameter (the paper's
        "base k" for bulk loads).
    max_fanout:
        Internal nodes split when they exceed this many children.
    split_policy:
        How overflowing leaves choose their cut; defaults to the R-tree-like
        :class:`~repro.index.split.MinMarginSplitPolicy`.
    domain_extents:
        Full per-attribute ranges, used by split policies to normalize.
        Defaults to all-ones (unnormalized) when omitted.
    leaf_store:
        Optional paged mirror for I/O accounting
        (:class:`~repro.index.leaf_store.PagedLeafStore`).
    leaf_capacity:
        Leaves split when they exceed this many records (the ``ck`` of
        §3's "between k and ck records"); defaults to
        ``DEFAULT_CAPACITY_FACTOR * k`` and must be at least ``2k - 1`` so
        a split can leave k records on both sides.
    """

    def __init__(
        self,
        dimensions: int,
        k: int,
        max_fanout: int = DEFAULT_MAX_FANOUT,
        split_policy: SplitPolicy | None = None,
        domain_extents: Sequence[float] | None = None,
        leaf_store: LeafStore | None = None,
        leaf_capacity: int | None = None,
    ) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        if k < 1:
            raise ValueError("k must be at least 1")
        if max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        if leaf_capacity is not None and leaf_capacity < 2 * k - 1:
            raise ValueError(
                f"leaf_capacity {leaf_capacity} cannot split into two "
                f"k={k} halves"
            )
        self._dimensions = dimensions
        self._k = k
        self._leaf_capacity = (
            leaf_capacity
            if leaf_capacity is not None
            else DEFAULT_CAPACITY_FACTOR * k
        )
        self._max_fanout = max_fanout
        self._policy = split_policy if split_policy is not None else MinMarginSplitPolicy()
        if domain_extents is None:
            self._domain_extents: tuple[float, ...] = (1.0,) * dimensions
        else:
            if len(domain_extents) != dimensions:
                raise ValueError(
                    f"{len(domain_extents)} domain extents for {dimensions} dimensions"
                )
            self._domain_extents = tuple(float(extent) for extent in domain_extents)
        self._store = leaf_store if leaf_store is not None else LeafStore()
        self._root: Node | None = None
        self._count = 0
        self._split_trigger = self._leaf_capacity
        #: The version drawn when :meth:`finish_bulk` last ended.
        self._settled = -1

    # -- basic accessors -----------------------------------------------------

    @property
    def k(self) -> int:
        """The anonymity floor: minimum records per leaf."""
        return self._k

    @property
    def leaf_capacity(self) -> int:
        """The split trigger: maximum records per leaf (``c * k``)."""
        return self._leaf_capacity

    @property
    def max_fanout(self) -> int:
        return self._max_fanout

    @property
    def dimensions(self) -> int:
        return self._dimensions

    @property
    def root(self) -> Node | None:
        return self._root

    @property
    def domain_extents(self) -> tuple[float, ...]:
        return self._domain_extents

    def __len__(self) -> int:
        return self._count

    def adopt_leaf_store(self, store: LeafStore) -> None:
        """Attach ``store`` and register every existing leaf with it.

        Used after snapshot restore, where the tree is rebuilt in memory
        first and the paged backing store is reattached afterwards.
        """
        self._store = store
        for leaf in self.leaves():
            store.on_create(leaf)

    @property
    def height(self) -> int:
        """Levels above the leaves (0 for a root leaf, -1 when empty)."""
        if self._root is None:
            return -1
        return self._root.level

    # -- insertion -------------------------------------------------------------

    def insert(self, record: Record) -> None:
        """Insert one record, splitting along the path as needed.

        This is the incremental-anonymization primitive of §2.2: after the
        call the leaf partitioning is again k-anonymous (given the tree held
        at least ``k`` records before, or holds fewer than ``k`` in total).
        """
        if len(record.point) != self._dimensions:
            raise ValueError(
                f"record {record.rid} has {len(record.point)} dimensions, "
                f"tree expects {self._dimensions}"
            )
        if self._root is None:
            self._root = LeafNode()
        leaf, path = self._descend(record.point)
        if OBS.enabled:
            OBS.count("rtree.inserts")
            OBS.observe("rtree.routing_depth", len(path))
        leaf.records.append(record)
        touch_path((leaf, *path))
        self._store.on_append(leaf, record)
        self._count += 1
        self._grow_mbrs(leaf, path, record.point)
        if len(leaf.records) > self._split_trigger:
            self._split_leaf(leaf, path)

    def _descend(self, point: Sequence[float]) -> tuple[LeafNode, list[InternalNode]]:
        """Route from the root to the point's leaf; also return its ancestors.

        The path runs root first.  Nodes keep no parent links, so every
        mutation takes its ancestors from here, and a path must be taken
        fresh after any split: splits re-parent nodes.
        """
        path: list[InternalNode] = []
        node = self._root
        while isinstance(node, InternalNode):
            path.append(node)
            node = route_cut(node.cuts, point)
        return node, path  # type: ignore[return-value]

    def _path_to(self, leaf: LeafNode) -> list[InternalNode]:
        """A fresh root path to a non-empty leaf that is in the tree."""
        return self._descend(leaf.records[0].point)[1]

    def insert_all(self, records: Iterable[Record]) -> None:
        """Insert records one by one (the paper's "tuple-loading" baseline)."""
        for record in records:
            self.insert(record)

    def begin_bulk(self, trigger: int | None = None) -> None:
        """Enter bulk mode: defer fine-grained leaf splits.

        During a bulk load leaves are allowed to grow to ``trigger`` records
        (default ``max(leaf_capacity, 64 * k)``) before splitting, so that
        when :meth:`finish_bulk` splits them down to the occupancy invariant
        the split search runs over large record sets — which the vectorized
        exhaustive evaluator handles at C speed — instead of thousands of
        tiny increments.  The k-anonymity floor is unaffected (deferral can
        only make leaves larger), but the ``<= leaf_capacity`` invariant
        holds only after :meth:`finish_bulk`.
        """
        if trigger is None:
            trigger = max(self._leaf_capacity, 64 * self._k)
        self._split_trigger = max(trigger, self._leaf_capacity)

    def finish_bulk(self) -> None:
        """Leave bulk mode: split every over-capacity leaf down to size.

        Only leaves changed since the last ``finish_bulk`` ended can be
        over capacity with a legal cut: every other one either fits or was
        refused then, and splitting it again would refuse again.  So the
        walk descends, in preorder, only into nodes whose version is newer
        than that end (:meth:`_changed_leaves`), and splits the leaves
        that ``tree.leaves()`` order would, in that order.
        """
        self._split_trigger = self._leaf_capacity
        with span("rtree.finish_bulk"):
            for leaf in self._changed_leaves(self._settled):
                if len(leaf.records) > self._leaf_capacity:
                    self._split_leaf(leaf, self._path_to(leaf))
            self._settled = fresh_version()

    def _changed_leaves(self, since: int) -> list[LeafNode]:
        """The leaves whose version is newer than ``since``, left to right.

        The :meth:`leaves` walk, entering only nodes newer than ``since``:
        a node's version covers every change under it.
        """
        found: list[LeafNode] = []
        if self._root is None:
            return found
        visited = 0
        stack: list[Node | Cut] = [self._root]
        while stack:
            item = stack.pop()
            if isinstance(item, Cut):
                stack.append(item.right.inner)
                stack.append(item.left.inner)
                continue
            visited += 1
            if item.version <= since:  # type: ignore[union-attr]
                continue
            if isinstance(item, LeafNode):
                found.append(item)
            else:
                stack.append(item.cuts.inner)  # type: ignore[union-attr]
        if OBS.enabled:
            OBS.count("rtree.finish_bulk_nodes", visited)
        return found

    @property
    def in_bulk_mode(self) -> bool:
        return self._split_trigger != self._leaf_capacity

    def bulk_insert_descending(self, node: Node, records: Sequence[Record]) -> None:
        """Deliver a batch below ``node``, grouping per destination leaf.

        The buffer-tree flush path: route every record first (cheap — a few
        comparisons), then mutate each touched leaf once, so MBR maintenance
        and split checks are paid per leaf-batch instead of per record.
        ``node`` may be a stale view from before a split; routing through it
        still reaches the right leaves, and each leaf group takes a fresh
        root path for its MBR growth and splits.
        """
        if node.is_leaf:
            self.insert_all(records)
            return
        groups: dict[int, tuple[LeafNode, list[Record]]] = {}
        for record in records:
            target = node
            while not target.is_leaf:
                target = target.route(record.point)  # type: ignore[union-attr]
            entry = groups.get(target.node_id)
            if entry is None:
                groups[target.node_id] = (target, [record])  # type: ignore[assignment]
            else:
                entry[1].append(record)
        for leaf, batch in groups.values():
            self._bulk_leaf_insert(leaf, batch)

    def _bulk_leaf_insert(self, leaf: LeafNode, records: list[Record]) -> None:
        if OBS.enabled:
            OBS.count("rtree.inserts", len(records))
        leaf.records.extend(records)
        path = self._path_to(leaf)
        touch_path((leaf, *path))
        for record in records:
            self._store.on_append(leaf, record)
        self._count += len(records)
        if OBS.enabled:
            for _record in records:
                OBS.observe("rtree.routing_depth", len(path))
        self._grow_mbrs_box(leaf, path, Box.from_points(r.point for r in records))
        if len(leaf.records) > self._split_trigger:
            self._split_leaf(leaf, path)

    def _grow_mbrs(
        self, leaf: LeafNode, path: list[InternalNode], point: Sequence[float]
    ) -> None:
        for node in (leaf, *reversed(path)):
            if node.mbr is None:
                node.mbr = Box.from_point(point)
            elif node.mbr.contains_point(point):
                # Ancestor MBRs contain this one, so they contain the point.
                break
            else:
                node.mbr = node.mbr.union_point(point)

    def _grow_mbrs_box(
        self, leaf: LeafNode, path: list[InternalNode], box: Box
    ) -> None:
        for node in (leaf, *reversed(path)):
            if node.mbr is None:
                node.mbr = box
            elif node.mbr.contains_box(box):
                break
            else:
                node.mbr = node.mbr.union(box)

    # -- splitting ---------------------------------------------------------------

    def _split_leaf(
        self,
        leaf: LeafNode,
        path: list[InternalNode],
        points: np.ndarray | None = None,
    ) -> None:
        """Split ``leaf``, whose ancestors are ``path`` (root first).

        ``points`` is the leaf's float64 point matrix in record order.  A
        top-level split builds it once; the recursion hands each child the
        rows it cut from it, so the policy, the cut and both children's
        MBRs all read the same matrix.
        """
        if points is None:
            points = point_matrix(leaf.records)
        with span("rtree.leaf_split", records=len(leaf.records)):
            decision = self._policy.choose_split(
                leaf.records, points, self._k, self._domain_extents
            )
            if decision is None:
                # No legal cut: the leaf stays over-full, which is privacy-safe.
                if OBS.enabled:
                    OBS.count("rtree.split_refusals")
                if TRACE.enabled:
                    TRACE.instant("rtree.split_refusal", records=len(leaf.records))
                return
            if OBS.enabled:
                OBS.count("rtree.leaf_splits")
                OBS.count("rtree.mbr_recomputations", 2)
            mask = points[:, decision.dimension] <= decision.value
            left_points, right_points = points[mask], points[~mask]
            left = LeafNode()
            left.records = list(compress(leaf.records, mask.tolist()))
            left.mbr = _bounding_box(left.records, left_points)
            right = LeafNode()
            right.records = list(compress(leaf.records, (~mask).tolist()))
            right.mbr = _bounding_box(right.records, right_points)
            self._store.on_split(leaf, left, right)
            cut = make_cut(decision.dimension, decision.value, left, right)
            self._replace_with_cut(leaf, path, cut, left, right)
        # Bulk insertion can leave a leaf far above capacity; keep splitting
        # until every piece fits (or no legal cut remains).  The pieces'
        # splits are spans of their own, not children of this one, and each
        # takes a fresh path: the split above may have split ``path`` too.
        if len(left.records) > self._split_trigger:
            self._split_leaf(left, self._path_to(left), left_points)
        if len(right.records) > self._split_trigger:
            self._split_leaf(right, self._path_to(right), right_points)

    def _split_internal(self, node: InternalNode, path: list[InternalNode]) -> None:
        if OBS.enabled:
            OBS.count("rtree.internal_splits")
            OBS.count("rtree.mbr_recomputations", 2)
        if TRACE.enabled:
            TRACE.instant("rtree.internal_split", level=node.level)
        cut_root = node.cuts.inner
        if not isinstance(cut_root, Cut):
            raise AssertionError("an overflowing internal node must hold a cut")
        # The promoted cut's two slot subtrees become the new nodes' cut
        # trees; they are shared, not copied, so stale views keep routing.
        left = InternalNode(node.level, cut_root.left)
        right = InternalNode(node.level, cut_root.right)
        left.recompute_mbr()
        right.recompute_mbr()
        cut = make_cut(cut_root.dimension, cut_root.value, left, right)
        self._replace_with_cut(node, path, cut, left, right)

    def _replace_with_cut(
        self, old: Node, path: list[InternalNode], cut: Cut, left: Node, right: Node
    ) -> None:
        if not path:
            new_root = InternalNode(old.level + 1, Slot(cut))
            new_root.recompute_mbr()
            self._root = new_root
            return
        parent = path[-1]
        parent.replace_child(old, cut, added=1)
        touch_path(path)
        if parent.fanout > self._max_fanout:
            self._split_internal(parent, path[:-1])

    # -- deletion -----------------------------------------------------------------

    def delete(self, rid: int, point: Sequence[float]) -> Record:
        """Remove the record with the given id, preserving the occupancy floor.

        An underflowing leaf is dissolved and its remaining records are
        reinserted (the classic R-tree treatment), so the invariant holds
        again on return.  Raises ``KeyError`` when no such record exists.
        """
        if self._root is None:
            raise KeyError(rid)
        leaf, path = self._descend(point)
        for index, record in enumerate(leaf.records):
            if record.rid == rid:
                removed = leaf.records.pop(index)
                touch_path((leaf, *path))
                break
        else:
            raise KeyError(rid)
        if OBS.enabled:
            OBS.count("rtree.deletes")
        self._count -= 1
        if leaf is self._root:
            leaf.recompute_mbr()
            self._store.on_rewrite(leaf)
            return removed
        if len(leaf.records) >= self._k:
            self._store.on_rewrite(leaf)
            self._shrink_mbrs([*path, leaf])
            return removed
        # Underflow: dissolve the leaf and reinsert the orphans.
        orphans = list(leaf.records)
        if OBS.enabled:
            OBS.count("rtree.dissolves")
            OBS.count("rtree.reinserted_orphans", len(orphans))
        if TRACE.enabled:
            TRACE.instant("rtree.underflow_dissolve", orphans=len(orphans))
        leaf.records = []
        self._dissolve_leaf(leaf, path)
        self._count -= len(orphans)
        reinserted = 0
        try:
            for orphan in orphans:
                self.insert(orphan)
                reinserted += 1
        except BaseException:
            # The leaf is already dissolved and the counts decremented; a
            # failed reinsert (split-policy error, leaf-store I/O fault)
            # must not vanish the remaining orphans, and delete() raising
            # means the caller's record stays too.  Restore everything
            # through a fail-safe path that cannot itself raise.
            self._restore_records(orphans[reinserted:])
            self._restore_records([removed])
            raise
        return removed

    def _restore_records(self, records: Sequence[Record]) -> None:
        """Put records back into the tree without any fallible machinery.

        The underflow-recovery path: routes each record to its leaf and
        appends in memory only — no split (a leaf left over-capacity is
        privacy-safe; only the k-floor matters) and best-effort store
        mirroring (the paged store is a metering layer and may be the very
        thing that failed).
        """
        touched: dict[int, LeafNode] = {}
        for record in records:
            if self._root is None:
                self._root = LeafNode()
            leaf, path = self._descend(record.point)
            leaf.records.append(record)
            touch_path((leaf, *path))
            self._count += 1
            self._grow_mbrs(leaf, path, record.point)
            touched[leaf.node_id] = leaf
            try:
                self._store.on_append(leaf, record)
            except Exception:
                pass  # metering only; the in-memory tree stays authoritative
        for leaf in touched.values():
            if len(leaf.records) > self._split_trigger:
                try:
                    self._split_leaf(leaf, self._path_to(leaf))
                except Exception:
                    pass  # over-full is privacy-safe; splitting is optional here

    def _shrink_mbrs(self, path: Sequence[LeafNode | InternalNode]) -> None:
        """Recompute the MBRs along a root path, deepest first, up to the
        first one that comes out unchanged: the unions above it are too."""
        recomputed = 0
        for recomputed, node in enumerate(reversed(path), 1):
            old = node.mbr
            node.recompute_mbr()
            if node.mbr == old:
                break
        if OBS.enabled and recomputed:
            OBS.count("rtree.mbr_recomputations", recomputed)

    def _dissolve_leaf(self, leaf: LeafNode, path: list[InternalNode]) -> None:
        self._store.on_dissolve(leaf)
        node: Node = leaf
        depth = len(path)
        # Unwind any single-child chain above the disappearing leaf.
        while depth and path[depth - 1].fanout == 1:
            depth -= 1
            node = path[depth]
        if not depth:
            # The whole tree is draining away.
            self._root = None
            return
        path[depth - 1].remove_child(node)
        touch_path(path[:depth])
        self._shrink_mbrs(path[:depth])
        # A root with a single child loses a level.
        root = self._root
        while isinstance(root, InternalNode) and root.fanout == 1:
            root = next(root.children())
        self._root = root

    def update(self, rid: int, old_point: Sequence[float], record: Record) -> Record:
        """Update a record's quasi-identifiers: delete + reinsert.

        §1 lists updates alongside insertions and deletions as what
        database indexes are designed for; with disjoint regions an update
        is exactly a move between leaves.  Returns the record that was
        replaced; raises ``KeyError`` when no record with ``rid`` exists at
        ``old_point``.

        The operation is atomic: the new record is validated before the old
        one is removed, and if the insert fails anyway the removed record
        is put back, so a failed update never loses data.
        """
        if len(record.point) != self._dimensions:
            raise ValueError(
                f"record {record.rid} has {len(record.point)} dimensions, "
                f"tree expects {self._dimensions}"
            )
        removed = self.delete(rid, old_point)
        try:
            self.insert(record)
        except Exception:
            self.insert(removed)
            raise
        if OBS.enabled:
            OBS.count("rtree.updates")
        return removed

    # -- search ----------------------------------------------------------------

    def search(self, box: Box) -> list[Record]:
        """All records whose points fall inside the query box."""
        results: list[Record] = []
        if self._root is None:
            return results
        stack: list[Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(box):
                continue
            if node.is_leaf:
                results.extend(
                    record
                    for record in node.records  # type: ignore[union-attr]
                    if box.contains_point(record.point)
                )
            else:
                stack.extend(node.children())  # type: ignore[union-attr]
        return results

    def matching_leaves(self, box: Box) -> list[LeafNode]:
        """Leaves whose MBR intersects the box — the §2.3 candidate set ``W``.

        Thanks to MBRs this set is smaller than the set of leaves whose
        *regions* intersect the box, which is exactly the precision benefit
        the paper attributes to minimum bounding rectangles.
        """
        matches: list[LeafNode] = []
        if self._root is None:
            return matches
        stack: list[Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(box):
                continue
            if node.is_leaf:
                matches.append(node)  # type: ignore[arg-type]
            else:
                stack.extend(node.children())  # type: ignore[union-attr]
        return matches

    def locate_leaf(self, point: Sequence[float]) -> LeafNode | None:
        """The unique leaf whose region contains the point."""
        if self._root is None:
            return None
        return self._descend(point)[0]

    # -- traversal ----------------------------------------------------------------

    def leaves(self) -> list[LeafNode]:
        """All leaves in left-to-right (spatially sequential) order.

        One explicit-stack walk over the cut slots: a cut pushes its right
        side before its left, so leaves pop in depth-first, left-to-right
        order.
        """
        found: list[LeafNode] = []
        if self._root is None:
            return found
        stack: list[Node | Cut] = [self._root]
        while stack:
            item = stack.pop()
            if isinstance(item, Cut):
                stack.append(item.right.inner)
                stack.append(item.left.inner)
            elif isinstance(item, LeafNode):
                found.append(item)
            else:
                stack.append(item.cuts.inner)  # type: ignore[union-attr]
        return found

    def nodes_at_level(self, level: int) -> list[Node]:
        """All nodes at a tree level, left to right (for hierarchical releases)."""
        if self._root is None or level > self._root.level or level < 0:
            return []
        found: list[Node] = []

        def visit(node: Node) -> None:
            if node.level == level:
                found.append(node)
                return
            if not node.is_leaf:
                for child in node.children():  # type: ignore[union-attr]
                    visit(child)

        visit(self._root)
        return found

    def leaf_groups(self) -> list[list[Record]]:
        """Record groups per leaf, in leaf order — the raw k-anonymous partitions."""
        return [list(leaf.records) for leaf in self.leaves()]

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Structural statistics: node counts, occupancy, fanout per level.

        A diagnostic snapshot (used by tests and the examples) — not part
        of any paper experiment, but indispensable when tuning capacity
        factors and fanout against a new workload.
        """
        leaves = self.leaves()
        leaf_sizes = [len(leaf.records) for leaf in leaves]
        per_level: dict[int, int] = {}
        fanouts: list[int] = []
        if self._root is not None:
            stack: list[Node] = [self._root]
            while stack:
                node = stack.pop()
                per_level[node.level] = per_level.get(node.level, 0) + 1
                if not node.is_leaf:
                    internal: InternalNode = node  # type: ignore[assignment]
                    fanouts.append(internal.fanout)
                    stack.extend(internal.children())
        return {
            "records": self._count,
            "height": self.height,
            "leaves": len(leaves),
            "nodes_per_level": dict(sorted(per_level.items())),
            "leaf_occupancy_min": min(leaf_sizes) if leaf_sizes else 0,
            "leaf_occupancy_max": max(leaf_sizes) if leaf_sizes else 0,
            "leaf_occupancy_mean": (
                sum(leaf_sizes) / len(leaf_sizes) if leaf_sizes else 0.0
            ),
            "mean_fanout": sum(fanouts) / len(fanouts) if fanouts else 0.0,
        }

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify every structural invariant; raises ``AssertionError`` on any breach.

        Checked: record count, uniform leaf depth, fanout bounds, leaf
        occupancy (k-floor with the documented exemptions), MBR exactness,
        cut separation (every record in a cut's left subtree lies at or
        below the cut value; every record on the right lies strictly above —
        i.e. sibling regions are genuinely disjoint), versions (no internal
        node's version is below a child's, so a change left unbumped on a
        root path fails here) and every kept node record count.
        """
        if self._root is None:
            assert self._count == 0, "empty tree with a nonzero record count"
            return
        total = self._check_node(self._root)
        assert total == self._count, (
            f"record count mismatch: counted {total}, tracked {self._count}"
        )

    def _check_node(self, node: Node) -> int:
        if node.is_leaf:
            leaf: LeafNode = node  # type: ignore[assignment]
            count = len(leaf.records)
            if node is not self._root:
                assert count >= self._k, (
                    f"leaf {node.node_id} holds {count} < k={self._k} records"
                )
            if count > self._leaf_capacity:
                decision = self._policy.choose_split(
                    leaf.records,
                    point_matrix(leaf.records),
                    self._k,
                    self._domain_extents,
                )
                assert decision is None, (
                    f"leaf {node.node_id} is over-full ({count} > "
                    f"{self._leaf_capacity}) despite a legal split existing"
                )
            if count:
                expected = Box.from_points(record.point for record in leaf.records)
                assert leaf.mbr == expected, f"leaf {node.node_id} MBR is stale"
            else:
                assert leaf.mbr is None or node is self._root
            return count
        internal: InternalNode = node  # type: ignore[assignment]
        children = list(internal.children())
        assert internal.fanout == len(children), (
            f"node {node.node_id} fanout {internal.fanout} != {len(children)} children"
        )
        assert 1 <= internal.fanout <= self._max_fanout, (
            f"node {node.node_id} fanout {internal.fanout} outside [1, {self._max_fanout}]"
        )
        total = 0
        boxes: list[Box] = []
        for child in children:
            assert child.level == internal.level - 1, (
                f"child {child.node_id} level {child.level} under level "
                f"{internal.level} parent (leaf depth must be uniform)"
            )
            assert child.version <= internal.version, (
                f"child {child.node_id} version {child.version} is newer than "
                f"its parent {node.node_id}'s {internal.version}"
            )
            total += self._check_node(child)
            if child.mbr is not None:
                boxes.append(child.mbr)
        kept = internal.cached_count()
        assert kept is None or kept == total, (
            f"node {node.node_id} keeps a record count of {kept}, holds {total}"
        )
        if boxes:
            expected = boxes[0]
            for box in boxes[1:]:
                expected = expected.union(box)
            assert internal.mbr == expected, f"node {node.node_id} MBR is stale"
        self._check_cut_separation(internal.cuts)
        return total

    def _check_cut_separation(self, slot: Slot) -> None:
        item = slot.inner
        if not isinstance(item, Cut):
            return
        for record in self._records_under(item.left):
            assert record.point[item.dimension] <= item.value, (
                f"record {record.rid} violates a cut on dimension {item.dimension}"
            )
        for record in self._records_under(item.right):
            assert record.point[item.dimension] > item.value, (
                f"record {record.rid} violates a cut on dimension {item.dimension}"
            )
        self._check_cut_separation(item.left)
        self._check_cut_separation(item.right)

    def _records_under(self, slot: Slot) -> Iterator[Record]:
        item = slot.inner
        if isinstance(item, Cut):
            yield from self._records_under(item.left)
            yield from self._records_under(item.right)
        elif isinstance(item, LeafNode):
            yield from item.records
        elif isinstance(item, InternalNode):
            yield from self._records_under(item.cuts)
