"""The R+-tree anonymizer — the paper's system, assembled.

:class:`RTreeAnonymizer` owns one R+-tree built at a *base* anonymity level
(the paper uses base k = 5) and serves three jobs:

* **bulk anonymization** (§2.1): load a whole table through the buffer-tree
  loader;
* **incremental anonymization** (§2.2): insert/delete records or batches at
  any time — index maintenance keeps the leaf partitioning k-anonymous;
* **release generation** (§3.2): emit a k1-anonymous table for any
  ``k1 >= base k`` by leaf-scanning, optionally under an extra per-partition
  constraint (l-diversity etc.), each partition published under its
  minimum bounding box (§4's compaction — the index's native output).

Because every release is built from whole leaves, any collection of
releases at different granularities preserves base-k anonymity under
collusion (Lemma 1) — verified empirically by
:func:`repro.privacy.attack.intersection_attack`.
"""

from __future__ import annotations

from functools import reduce
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

# Imported with this module, not inside bulk_load_file: an import made
# mid-load scatters long-lived objects among the load's short-lived ones,
# which fragments the heap (about 7 MB more peak RSS on a 10^5-record load).
from repro import parallel
from repro.core.leafscan import Constraint, Run, sequential_scan, subtree_scan
from repro.core.partition import (
    AnonymizedTable,
    Partition,
    Release,
    digest_fragment,
    fragments_digest,
)
from repro.dataset.record import Record
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.geometry.box import Box
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.leaf_store import PagedLeafStore
from repro.index.rtree import (
    DEFAULT_CAPACITY_FACTOR,
    DEFAULT_MAX_FANOUT,
    RPlusTree,
)
from repro.index.split import SplitPolicy
from repro.obs import AUDITOR, OBS, span
from repro.obs.audit import audit_release, normalized_volume
from repro.storage.buffer_pool import BufferPool

#: The paper's base anonymity level for bulk loads (§5.1).
DEFAULT_BASE_K = 5

#: The release strategies: how a release groups whole leaves (see anonymize).
STRATEGIES = ("subtree", "sequential")


def build_compacted_partitions(runs: Sequence[Run]) -> list[Partition]:
    """Each run of whole leaves as a partition under its minimum bounding box.

    The publish path of every release (:meth:`RTreeAnonymizer._publish_runs`),
    called for the runs the previous release did not hold.  A run's
    minimum bounding box is the union of its leaves' cached MBRs, which
    the tree keeps exact (:meth:`~repro.index.rtree.RPlusTree.check_invariants`
    asserts each equals ``Box.from_points`` of the leaf's records), so no
    record point is read; a one-leaf run publishes ``leaf.mbr`` as is.
    """
    partitions: list[Partition] = []
    for run in runs:
        if len(run) == 1:
            leaf = run[0]
            partitions.append(Partition.trusted(tuple(leaf.records), leaf.mbr))
        else:
            box = reduce(Box.union, [leaf.mbr for leaf in run])
            partitions.append(Partition.trusted(_run_records(run), box))
    return partitions


def _run_records(run: Run) -> tuple[Record, ...]:
    """A run's records, leaf by leaf in leaf order."""
    return tuple([record for leaf in run for record in leaf.records])


class _PublishedRun:
    """One compacted run as published: its partition, digest bytes and volume.

    The digest bytes and the audit volume are computed on first use, by
    the digest and the audit, and then kept for as long as the run stays
    unchanged.
    """

    __slots__ = ("partition", "_fragment", "_volume")

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self._fragment: bytes | None = None
        self._volume: float | None = None

    def fragment(self) -> bytes:
        """The partition's :func:`~repro.core.partition.digest_fragment`."""
        if self._fragment is None:
            self._fragment = digest_fragment(self.partition)
        return self._fragment

    def volume(self, extents: Sequence[float]) -> float:
        """The box's :func:`~repro.obs.audit.normalized_volume`."""
        if self._volume is None:
            self._volume = normalized_volume(self.partition.box, extents)
        return self._volume


class RTreeAnonymizer:
    """Scalable, incremental k-anonymization via a spatial index."""

    def __init__(
        self,
        schema_table: Table,
        base_k: int = DEFAULT_BASE_K,
        capacity_factor: int = DEFAULT_CAPACITY_FACTOR,
        max_fanout: int = DEFAULT_MAX_FANOUT,
        split_policy: SplitPolicy | None = None,
        pool: BufferPool[Record] | None = None,
        leaf_capacity: int | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        """Create an anonymizer for a table's schema (no records loaded yet).

        ``schema_table`` supplies the schema and the attribute domains used
        to normalize split decisions; pass the actual data table and then
        call :meth:`bulk_load` (or construct via :meth:`anonymize_table`).
        ``pool`` attaches the simulated storage layer for I/O accounting.
        ``durability`` opts into crash safety: every acknowledged mutation
        is written ahead to a log in ``durability.dir`` and
        :meth:`checkpoint`/:func:`repro.durability.recovery.recover` bound
        the replay work (see docs/API.md).  The directory must be fresh —
        recover existing state instead of re-opening it blind.
        """
        self._schema = schema_table.schema
        leaf_store = PagedLeafStore(pool) if pool is not None else None
        self._tree = RPlusTree(
            dimensions=self._schema.dimensions,
            k=base_k,
            capacity_factor=capacity_factor,
            max_fanout=max_fanout,
            split_policy=split_policy,
            domain_extents=self._schema.domain_extents(),
            leaf_store=leaf_store,
            leaf_capacity=leaf_capacity,
        )
        self._pool = pool
        self._loader = BufferTreeLoader(self._tree, pool=pool)
        #: The auditor's record of the latest release (see _emit_release).
        self._last_audit: dict[str, object] | None = None
        #: The latest release's runs, keyed by their leaves' versions (see
        #: _publish_runs), and the same runs in partition order.
        self._runs: dict[tuple[int, ...], _PublishedRun] = {}
        self._last_runs: list[_PublishedRun] = []
        self._durability: DurabilityManager | None = None
        if durability is not None:
            self._durability = DurabilityManager.create(
                durability,
                self._tree,
                self._schema,
                io_stats=self.io_stats(),
            )

    # -- construction shortcuts ------------------------------------------------

    @classmethod
    def _from_restored(
        cls,
        schema: Schema,
        tree: RPlusTree,
        pool: BufferPool[Record] | None = None,
    ) -> "RTreeAnonymizer":
        """Assemble an anonymizer around an already-built tree (recovery).

        Bypasses tree construction entirely; the durability manager (if
        any) is attached afterwards by the recovery driver via
        :meth:`_attach_durability`.
        """
        anonymizer = cls.__new__(cls)
        anonymizer._schema = schema
        anonymizer._pool = pool
        anonymizer._tree = tree
        if pool is not None:
            tree.adopt_leaf_store(PagedLeafStore(pool))
        anonymizer._loader = BufferTreeLoader(tree, pool=pool)
        anonymizer._durability = None
        anonymizer._last_audit = None
        anonymizer._runs = {}
        anonymizer._last_runs = []
        return anonymizer

    def _attach_durability(self, manager: DurabilityManager) -> None:
        self._durability = manager

    @classmethod
    def anonymize_table(
        cls,
        table: Table,
        k: int,
        base_k: int = DEFAULT_BASE_K,
        **kwargs: object,
    ) -> AnonymizedTable:
        """One-shot: bulk-load a table and emit its k-anonymous release."""
        anonymizer = cls(table, base_k=min(base_k, k), **kwargs)  # type: ignore[arg-type]
        anonymizer.bulk_load(table)
        return anonymizer.anonymize(k)

    # -- data ingestion -------------------------------------------------------------

    def load(
        self,
        source: Iterable[Record] | Table | str | Path,
        *,
        workers: int | None = None,
        batch_size: int = 8_192,
        first_rid: int = 0,
    ) -> int:
        """Bulk-anonymize a table, record stream, or record file.

        A path loads through :meth:`bulk_load_file`, anything else through
        :meth:`bulk_load`.  ``workers`` selects the sharded parallel scan,
        so it applies only to file sources: in-memory records have no
        file slices to fan out, and passing it for them raises
        ``ValueError`` rather than silently loading serially.
        """
        if isinstance(source, (str, Path)):
            return self.bulk_load_file(
                str(source),
                batch_size=batch_size,
                first_rid=first_rid,
                workers=workers,
            )
        if workers is not None:
            raise ValueError(
                "workers= applies only to file sources; in-memory records "
                "load through the serial buffer-tree path"
            )
        return self.bulk_load(source)

    def bulk_load(self, records: Iterable[Record] | Table) -> int:
        """Bulk-anonymize a record stream via the buffer-tree loader (§2.1).

        Returns the number of records the loader consumed.
        """
        stream = records.records if isinstance(records, Table) else records
        with span("index.load"):
            return self._logged_batch(self._loader.load, stream)

    def _logged_batch(
        self, load: Callable[[Iterable[Record]], int], stream: Iterable[Record]
    ) -> int:
        """Run ``load`` over ``stream`` as one WAL batch when durable.

        Members are logged as the loader consumes them and become durable
        only at the final batch-commit — a crash mid-batch discards the
        whole (unacknowledged) batch rather than half of it.  If the stream
        raises, the loader has applied every record it consumed, and each
        was logged: that prefix is drained into the leaves and sealed
        before the error propagates, so memory, the WAL and a replay agree.
        """
        durability = self._durability
        if durability is not None:
            durability.begin_batch()
            stream = self._log_batch_members(stream)
        try:
            return load(stream)
        except BaseException:
            self._loader.drain()
            raise
        finally:
            if durability is not None:
                durability.commit_batch()

    def _log_batch_members(self, stream: Iterable[Record]) -> Iterable[Record]:
        assert self._durability is not None
        for record in stream:
            self._durability.log_batched_insert(record)
            yield record

    def bulk_load_file(
        self,
        path: str,
        batch_size: int = 8_192,
        first_rid: int = 0,
        workers: int | None = None,
    ) -> int:
        """Bulk-anonymize straight from a binary record file (§5.2).

        Streams the file through the buffer-tree loader in ``batch_size``
        chunks — the staging input is never materialized as a table, which
        is how the paper's larger-than-memory runs feed the loader.
        Returns the number of records the loader actually consumed (which
        the file's header may misreport on a short read).

        ``workers`` switches on the sharded parallel scan
        (:mod:`repro.parallel`): the file is split into one contiguous
        record slice per worker, a worker pool keys and sorts each slice
        into a run, and the loader consumes the one merge of the runs — a
        single ``(key, rid)``-ordered stream.  The resulting index is
        bit-for-bit identical for *every* worker count (``workers=1`` runs
        the same pipeline in-process and is the serial reference).  Note
        the sharded path loads in Hilbert order, not file order, so
        ``workers=None`` (the file-order stream) builds a different —
        equally valid — tree than ``workers=1``.
        """
        from repro.dataset.io import RecordFileReader

        reader = RecordFileReader(path)
        if reader.dimensions != self._schema.dimensions:
            raise ValueError(
                f"{path} holds {reader.dimensions}-dimensional records, "
                f"schema expects {self._schema.dimensions}"
            )
        with span("index.load", path=path, workers=workers or 0):
            if workers is None:
                stream: Iterable[Record] = reader.iter_records(
                    batch_size, first_rid=first_rid
                )
            else:
                stream = parallel.scan_file_shards(
                    path,
                    self._schema.domain_lows(),
                    self._schema.domain_highs(),
                    workers=workers,
                    batch_size=batch_size,
                    first_rid=first_rid,
                )
            return self._logged_batch(self._loader.load, stream)

    def insert_batch(self, records: Iterable[Record] | Table) -> int:
        """Incrementally anonymize a new batch (§2.2, Figure 7(b)).

        Uses the same buffered path as the bulk load so batch cost is
        amortized; drains before returning so the partitioning immediately
        reflects the batch.
        """
        stream = records.records if isinstance(records, Table) else records

        def insert_and_drain(batch: Iterable[Record]) -> int:
            consumed = self._loader.insert_batch(batch)
            self._loader.drain()
            return consumed

        return self._logged_batch(insert_and_drain, stream)

    def insert(self, record: Record) -> None:
        """Insert one record through the ordinary index-maintenance path.

        Apply-then-log, with compensation: if the write-ahead log append
        fails (disk full, I/O error) the in-memory insert is rolled back
        before the exception propagates, so memory and the WAL never
        diverge — a checkpoint after the failure would otherwise persist an
        operation that a recovery from the *previous* checkpoint replays
        without.
        """
        self._tree.insert(record)
        if self._durability is not None:
            try:
                self._durability.log_insert(record)
            except BaseException:
                self._tree.delete(record.rid, record.point)
                raise

    def delete(self, rid: int, point: Sequence[float]) -> Record:
        """Delete one record; the occupancy floor is restored before returning.

        Compensates like :meth:`insert`: a failed WAL append reinserts the
        removed record so the acknowledged state equals the logged state.
        """
        removed = self._tree.delete(rid, point)
        if self._durability is not None:
            try:
                self._durability.log_delete(rid, point)
            except BaseException:
                self._tree.insert(removed)
                raise
        return removed

    def update(
        self, rid: int, old_point: Sequence[float], record: Record
    ) -> Record:
        """Update a record's quasi-identifiers (a move between leaves).

        Compensates like :meth:`insert`: a failed WAL append reverses the
        move (the new record comes out, the replaced one goes back in).
        """
        replaced = self._tree.update(rid, old_point, record)
        if self._durability is not None:
            try:
                self._durability.log_update(rid, old_point, record)
            except BaseException:
                self._tree.update(record.rid, record.point, replaced)
                raise
        return replaced

    # -- releases ------------------------------------------------------------------

    def anonymize(
        self,
        k: int,
        *,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> AnonymizedTable:
        """Emit a k-anonymous release at granularity ``k`` (leaf scan, §3.2).

        ``k`` must be at least the tree's base k.  Each partition is a run
        of whole leaves published under its minimum bounding box (§4's
        compaction — the index's native MBR output).

        ``strategy`` selects how whole leaves are grouped into partitions:
        ``"subtree"`` (default) aligns group boundaries with the cut
        hierarchy so partition boxes stay disjoint;
        ``"sequential"`` is the literal Figure 5 scan.  Both carry the same
        Lemma 1 multi-release guarantee (whole leaves, sequential order).
        """
        self.check_recipe(k, strategy)
        self._settle()
        if len(self._tree) < k:
            raise ValueError(
                f"cannot emit a {k}-anonymous release from {len(self._tree)} records"
            )
        with span("core.release", k=k, strategy=strategy):
            return self._emit_release(k, constraint, strategy)

    def release(
        self,
        k: int,
        *,
        constraint: Constraint | None = None,
        strategy: str = "subtree",
    ) -> Release:
        """Publish :meth:`anonymize`'s table with its audit and digest.

        The one place a release is grouped, audited and digested; both
        handles (:class:`repro.api.Anonymizer`,
        :class:`repro.serve.AnonymizerService`) forward here.  With the
        global auditor on, the audit is the record it appended for this
        very table (strict mode gates the publish); otherwise an
        equivalent record is computed directly, so ``audit`` is never empty.

        The release digests and audits from its runs' kept digest bytes
        and volumes, so only the runs that changed since the previous
        release are hashed and measured; the result equals
        :func:`~repro.core.partition.release_digest` and
        :func:`audit_release` of the table.
        """
        table = self.anonymize(k, constraint=constraint, strategy=strategy)
        audit = self._last_audit
        if audit is None:
            audit = audit_release(
                table, k, base_k=self._tree.k, volumes=self._run_volumes()
            )
        with span("core.digest"):
            digest = fragments_digest([run.fragment() for run in self._last_runs])
        return Release(
            table=table, audit=audit, digest=digest, k=k, strategy=strategy
        )

    def check_recipe(self, k: int, strategy: str) -> None:
        """Raise ``ValueError`` for a recipe this tree can never publish.

        An unknown strategy, or a ``k`` below the tree's base k.  Whether
        the tree holds at least ``k`` records is checked at publish time.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown grouping strategy {strategy!r}; expected one of "
                f"{', '.join(STRATEGIES)}"
            )
        if k < self._tree.k:
            raise ValueError(
                f"requested granularity {k} is below the base k "
                f"{self._tree.k} the index was built with"
            )

    def _settle(self) -> None:
        """Drain the loader's buffers, or else finish bulk mode.

        A release or checkpoint must reflect every record handed to this
        anonymizer: records parked in loader buffers (a caller used the
        loader without drain()) would silently be missing from it, and a
        tree still in bulk mode may hold over-full, unsplit leaves.
        """
        if self._loader.buffered_records:
            self._loader.drain()
        elif self._tree.in_bulk_mode:
            self._tree.finish_bulk()

    def _emit_release(
        self, k: int, constraint: Constraint | None, strategy: str
    ) -> AnonymizedTable:
        """Group the tree into runs of whole leaves, box them, and audit.

        Both strategies group *runs of whole leaves* (slices of
        ``tree.leaves()``).  A run publishes the union of its leaves'
        cached MBRs, reused from the previous release when its leaves are
        unchanged (:meth:`_publish_runs`).
        """
        with span("core.group", strategy=strategy):
            if strategy == "subtree":
                runs = subtree_scan(self._tree, k, constraint)
            else:
                runs = sequential_scan(self._tree, k, constraint)
        self._last_runs = self._publish_runs(runs)
        partitions = [run.partition for run in self._last_runs]
        if OBS.enabled:
            OBS.count("anonymizer.releases")
            OBS.count("anonymizer.partitions", len(partitions))
        release = AnonymizedTable(self._schema, partitions)
        # Every publish runs through the release auditor when it is on: the
        # audit record (k verdict, occupancy/volume distributions, quality
        # metrics) is the per-release evidence trail, and strict mode turns
        # a failed audit into an exception at this very publish site.  The
        # record is kept for release(), which must hand out this release's
        # audit and not whatever another handle published since.
        self._last_audit = (
            AUDITOR.on_release(
                release, k, base_k=self._tree.k, volumes=self._run_volumes()
            )
            if AUDITOR.enabled
            else None
        )
        return release

    def _publish_runs(self, runs: list[Run]) -> list[_PublishedRun]:
        """The published runs of this release, reusing the previous release's.

        A run is keyed by its leaves' versions.  A leaf draws a fresh
        version from one process-wide sequence whenever its records
        change (:meth:`~repro.index.node.LeafNode.touch`), so an equal key
        means the same leaves holding the same records under the same
        MBRs, and the previous release's partition, digest bytes and
        volume for it still hold.  Only the other runs are built.  The
        kept runs are then replaced by exactly this release's, so they
        never outgrow one release.
        """
        with span("core.compact"):
            previous = self._runs
            keys = [tuple([leaf.version for leaf in run]) for run in runs]
            missing = [run for key, run in zip(keys, runs) if key not in previous]
            built = iter(build_compacted_partitions(missing))
            published = [
                previous[key] if key in previous else _PublishedRun(next(built))
                for key in keys
            ]
            self._runs = dict(zip(keys, published))
        if OBS.enabled:
            OBS.count("core.runs_built", len(missing))
            OBS.count("core.runs_reused", len(runs) - len(missing))
        return published

    def _run_volumes(self) -> Iterator[float]:
        """The latest release's partition volumes, from its kept runs.

        The volumes are computed lazily, inside the audit's span.
        """
        extents = self._schema.domain_extents()
        return (run.volume(extents) for run in self._last_runs)

    # -- durability --------------------------------------------------------------------

    @property
    def durability(self) -> DurabilityManager | None:
        """The durability manager, or ``None`` for an in-memory anonymizer."""
        return self._durability

    def checkpoint(self) -> int:
        """Snapshot the tree and truncate the WAL there; returns the LSN.

        Drains any buffered loader records first so the snapshot captures
        exactly the acknowledged state, then delegates to
        :meth:`repro.durability.manager.DurabilityManager.checkpoint`.
        """
        if self._durability is None:
            raise ValueError(
                "this anonymizer has no durability configured; pass "
                "durability=DurabilityConfig(dir=...) at construction"
            )
        self._settle()
        with span("anonymizer.checkpoint"):
            return self._durability.checkpoint(self._tree, self._schema)

    def close(self) -> None:
        """Drop the kept release runs; flush and close the durability layer."""
        self._runs = {}
        self._last_runs = []
        if self._durability is not None:
            self._durability.close()

    # -- introspection ----------------------------------------------------------------

    @property
    def tree(self) -> RPlusTree:
        """The underlying index (for multi-granular releases and inspection)."""
        return self._tree

    @property
    def loader(self) -> BufferTreeLoader:
        """The buffer-tree loader.

        Callers streaming through it directly should ``drain()`` when done;
        :meth:`anonymize` drains on their behalf if they forget.
        """
        return self._loader

    @property
    def schema(self):  # noqa: ANN201 - Schema import kept light
        return self._schema

    @property
    def base_k(self) -> int:
        return self._tree.k

    def __len__(self) -> int:
        return len(self._tree)

    def leaf_count(self) -> int:
        return len(self._tree.leaves())

    def io_stats(self):  # noqa: ANN201
        """The simulated I/O counters (None when no pool is attached)."""
        if self._pool is None:
            return None
        return self._pool.pagefile.stats
