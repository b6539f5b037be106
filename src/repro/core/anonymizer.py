"""The R+-tree anonymizer — the paper's system, assembled.

:class:`RTreeAnonymizer` owns one R+-tree built at a *base* anonymity level
(the paper uses base k = 5) and serves three jobs:

* **bulk anonymization** (§2.1): load a whole table through the buffer-tree
  loader;
* **incremental anonymization** (§2.2): insert/delete/update records at
  any time, as write groups (:meth:`RTreeAnonymizer.write`) — index
  maintenance keeps the leaf partitioning k-anonymous;
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
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

# Imported with this module, not inside bulk_load_file: an import made
# mid-load scatters long-lived objects among the load's short-lived ones,
# which fragments the heap (about 7 MB more peak RSS on a 10^5-record load).
from repro import parallel
from repro.core.leafscan import (
    Constraint,
    Pieces,
    Run,
    sequential_scan,
    subtree_scan,
)
from repro.core.partition import (
    AnonymizedTable,
    Partition,
    Release,
    release_digest,
)
from repro.dataset.record import Record
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.durability.manager import (
    CheckpointResult,
    DurabilityConfig,
    DurabilityManager,
)
from repro.geometry.box import Box
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.leaf_store import PagedLeafStore
from repro.index.rtree import DEFAULT_MAX_FANOUT, RPlusTree
from repro.index.split import SplitPolicy
from repro.obs import OBS, span
from repro.obs.audit import audit_release
from repro.storage.buffer_pool import BufferPool

#: The paper's base anonymity level for bulk loads (§5.1).
DEFAULT_BASE_K = 5

#: The release strategies: how a release groups whole leaves (see anonymize).
STRATEGIES = ("subtree", "sequential")

#: How many release recipes keep their pieces and runs (see
#: _emit_release); the least recently published recipe is dropped first.
#: The service's release cache holds as many recipes
#: (:data:`repro.serve.cache.MAX_ENTRIES`).
MAX_RECIPES = 64

#: A release recipe, ``(k, strategy, constraint)``, and a run's key: its
#: leaves' versions.
Recipe = tuple[int, str, Constraint | None]
RunKey = tuple[int, ...]

#: The ops :meth:`RTreeAnonymizer.write` applies; the first two form runs.
WRITE_KINDS = ("insert", "insert_batch", "delete", "update")
_INSERTS = ("insert", "insert_batch")


def build_compacted_partitions(runs: Sequence[Run]) -> list[Partition]:
    """Each run of whole leaves as a partition under its minimum bounding box.

    The publish path of every release (:meth:`RTreeAnonymizer._publish_runs`),
    called once per release for the runs no kept recipe holds.  A run's
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


class RTreeAnonymizer:
    """Scalable, incremental k-anonymization via a spatial index."""

    def __init__(
        self,
        schema_table: Table,
        base_k: int = DEFAULT_BASE_K,
        max_fanout: int = DEFAULT_MAX_FANOUT,
        split_policy: SplitPolicy | None = None,
        pool: BufferPool[Record] | None = None,
        leaf_capacity: int | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        """Create an anonymizer for a table's schema (no records loaded yet).

        ``schema_table`` supplies the schema and the attribute domains used
        to normalize split decisions; pass the actual data table and then
        call :meth:`load`.  :func:`repro.api.open` builds one from a schema,
        table or record file.
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
            max_fanout=max_fanout,
            split_policy=split_policy,
            domain_extents=self._schema.domain_extents(),
            leaf_store=leaf_store,
            leaf_capacity=leaf_capacity,
        )
        self._pool = pool
        self._loader = BufferTreeLoader(self._tree, pool=pool)
        self._drop_kept_runs()
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
        anonymizer._drop_kept_runs()
        return anonymizer

    def _attach_durability(self, manager: DurabilityManager) -> None:
        self._durability = manager

    # -- data ingestion -------------------------------------------------------------

    def load(
        self,
        source: Iterable[Record] | Table | str | Path,
        *,
        workers: int | None = None,
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
                str(source), first_rid=first_rid, workers=workers
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
        with span("index.load"):
            return self._write_one(("insert_batch", records))

    def bulk_load_file(
        self,
        path: str,
        first_rid: int = 0,
        workers: int | None = None,
    ) -> int:
        """Bulk-anonymize straight from a binary record file (§5.2).

        Streams the file through the buffer-tree loader a page of decoded
        records at a time — the staging input is never materialized as a
        table, which is how the paper's larger-than-memory runs feed the
        loader.
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
                stream: Iterable[Record] = reader.iter_records(first_rid=first_rid)
            else:
                stream = parallel.scan_file_shards(
                    path,
                    self._schema.domain_lows(),
                    self._schema.domain_highs(),
                    workers=workers,
                    first_rid=first_rid,
                )
            return self._write_one(("insert_batch", stream))

    def insert_batch(self, records: Iterable[Record] | Table) -> int:
        """Incrementally anonymize a new batch (§2.2, Figure 7(b)).

        Uses the same buffered path as the bulk load so batch cost is
        amortized; drains before returning so the partitioning immediately
        reflects the batch.  Returns the number of records consumed.
        """
        return self._write_one(("insert_batch", records))

    def insert(self, record: Record) -> None:
        """Insert one record through the ordinary index-maintenance path."""
        self._write_one(("insert", record))

    def delete(self, rid: int, point: Sequence[float]) -> Record:
        """Delete one record; the occupancy floor is restored before returning.

        Raises ``KeyError`` when no record ``rid`` lives at ``point``.
        """
        return self._write_one(("delete", rid, point))

    def update(
        self, rid: int, old_point: Sequence[float], record: Record
    ) -> Record:
        """Update a record's quasi-identifiers (a move between leaves).

        Returns the replaced record; raises ``KeyError`` for an unknown
        ``rid`` and ``ValueError`` for a record of the wrong dimension.
        """
        return self._write_one(("update", rid, old_point, record))

    def _write_one(self, op: tuple) -> object:
        (result,) = self.write([op])
        if isinstance(result, Exception):
            raise result
        return result

    # -- the write path ------------------------------------------------------------

    def write(self, ops: Iterable[tuple]) -> list:
        """Apply an ordered group of writes; return each op's own result.

        Ops: ``("insert", record)``, ``("insert_batch", records)``,
        ``("delete", rid, point)``, ``("update", rid, old_point, record)``.
        A maximal run of inserts takes one loader pass, except a group of
        exactly one ``("insert", record)``.  Results: ``None``, the
        consumed count, the removed record; a delete or update the tree
        refuses before changing state gets its ``KeyError``/``ValueError``
        (nothing logged, the group goes on).  Any other error seals what
        was applied, then raises.  Durable, a group is one WAL commit and
        fsync, and a failed log write stops the handle (``DurabilityError``).
        """
        ops = list(ops)
        unknown = [op[0] for op in ops if op[0] not in WRITE_KINDS]
        if unknown:
            raise ValueError(f"unknown write op {unknown[0]!r}; expected {WRITE_KINDS}")
        batched = len(ops) != 1 or ops[0][0] == "insert_batch"
        durability = self._durability
        if durability is None:
            return self._apply(ops, batched, None)
        durability.begin(batched)
        try:
            return self._apply(ops, batched, durability)
        finally:
            durability.commit()

    def _apply(
        self, ops: list[tuple], batched: bool, log: DurabilityManager | None
    ) -> list:
        """Apply a group's ops in order, logging each through ``log``;
        recovery replays through here, where ``("batch_commit", 0)`` is a
        logged run break."""
        results: list = []
        run: list[tuple] = []
        for op in [*ops, ("batch_commit", 0)]:
            if batched and op[0] in _INSERTS:
                run.append(op)
                continue
            if run:
                if log is not None:
                    log.start_run()
                results += self._load_run(run, log)
                run = []
            if op[0] == "batch_commit":
                continue
            if op[0] == "insert":
                result = self._tree.insert(op[1])
            else:
                change = self._tree.delete if op[0] == "delete" else self._tree.update
                try:
                    result = change(*op[1:])
                except (KeyError, ValueError) as refused:
                    results.append(refused)
                    continue
            if log is not None:
                log.log(op)
            results.append(result)
        return results

    def _load_run(
        self, run: list[tuple], log: DurabilityManager | None
    ) -> list[int | None]:
        """One loader pass over a run of inserts, logging each record as it
        is consumed; a raising stream's consumed prefix is drained first."""
        counts = [0] * len(run)

        def records() -> Iterable[Record]:
            for slot, op in enumerate(run):
                for record in (op[1],) if op[0] == "insert" else op[1]:
                    if log is not None:
                        log.log(("insert", record))
                    counts[slot] += 1
                    yield record

        # A plain load takes its stream as is, with no per-record wrapper.
        plain = log is None and len(run) == 1 and run[0][0] == "insert_batch"
        try:
            consumed = self._loader.load(run[0][1] if plain else records())
        except BaseException:
            self._loader.drain()
            raise
        if plain:
            return [consumed]
        return [None if op[0] == "insert" else n for op, n in zip(run, counts)]

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
        if self._durability is not None:
            self._durability.check()
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

        The one place a release is grouped, audited and digested; the
        service (:class:`repro.serve.AnonymizerService`) publishes through
        it under its write lock.  The audit is
        :func:`audit_release` of this very table, and it lives only on the
        returned :class:`Release` (:meth:`anonymize` audits nothing).

        A partition reused from a kept run brings the digest bytes and
        volume it already holds, so :func:`release_digest` and
        :func:`audit_release` encode and measure only the runs that
        changed since they were last published.
        """
        table = self.anonymize(k, constraint=constraint, strategy=strategy)
        audit = audit_release(table, k, base_k=self._tree.k)
        digest = release_digest(table)
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
        """Group the tree into runs of whole leaves and box them.

        Both strategies group *runs of whole leaves* (slices of
        ``tree.leaves()``).  ``subtree`` splices the pieces its recipe's
        last release kept for the nodes no write has touched since
        (:func:`subtree_scan`); ``sequential`` scans every leaf.  Only the
        runs the scan closed itself are then published
        (:meth:`_publish_runs`), each reused from a kept release when its
        leaves are unchanged.  The recipe keeps what it published, and
        beyond :data:`MAX_RECIPES` the least recently published recipe
        lets its pieces and runs go.
        """
        recipe = (k, strategy, constraint)
        recipes = self._recipes
        pieces = recipes.get(recipe) or Pieces()
        # The last release's partitions stay registered while this one
        # looks its fresh runs up.
        previous = pieces.parts
        try:
            with span("core.group", strategy=strategy):
                if strategy == "subtree":
                    runs = subtree_scan(self._tree, k, constraint, pieces)
                    fresh: Sequence[int] = pieces.fresh
                else:
                    runs = sequential_scan(self._tree, k, constraint)
                    fresh = range(len(runs))
            partitions = self._publish_runs(runs, fresh)
        except BaseException:
            if pieces.parts is not previous:  # pieces over unpublished runs
                recipes.pop(recipe, None)
            raise
        pieces.parts = partitions
        pieces.fresh = []
        del previous
        recipes.pop(recipe, None)
        recipes[recipe] = pieces
        if len(recipes) > MAX_RECIPES:
            del recipes[next(iter(recipes))]
        if OBS.enabled:
            OBS.count("anonymizer.releases")
            OBS.count("anonymizer.partitions", len(partitions))
            OBS.gauge("core.kept_runs", len(self._runs))
        return AnonymizedTable.trusted(self._schema, partitions)

    def _publish_runs(self, runs: list, fresh: Sequence[int]) -> list[Partition]:
        """Replace the runs at ``fresh`` positions with their partitions.

        A run is keyed by its leaves' versions.  A leaf draws a fresh
        version from one process-wide sequence whenever its records
        change (:mod:`repro.index.node`), so an equal key means the same
        leaves holding the same records under the same MBRs, and a kept
        partition for it still holds, with the digest bytes and volume it
        keeps, whichever recipe published it.  The registry of kept runs
        is weak-valued: a partition stays in it while a kept recipe's
        last release holds it.  The other runs are built in one
        :func:`build_compacted_partitions` call.  ``runs`` itself becomes
        the release's partition list.
        """
        with span("core.compact"):
            kept = self._runs
            missing: list[int] = []
            keys: list[RunKey] = []
            for position in fresh:
                key = tuple([leaf.version for leaf in runs[position]])
                partition = kept.get(key)
                if partition is None:
                    missing.append(position)
                    keys.append(key)
                else:
                    runs[position] = partition
            built = build_compacted_partitions([runs[i] for i in missing])
            for position, key, partition in zip(missing, keys, built):
                runs[position] = partition
                kept[key] = partition
        if OBS.enabled:
            OBS.count("core.runs_built", len(missing))
            OBS.count("core.runs_reused", len(runs) - len(missing))
        return runs

    def _drop_kept_runs(self) -> None:
        #: Every kept run's partition by run key, while a kept recipe
        #: holds it; and each kept recipe's pieces (for ``sequential``,
        #: only its last partitions), least recently published first.
        self._runs: WeakValueDictionary[RunKey, Partition] = WeakValueDictionary()
        self._recipes: dict[Recipe, Pieces] = {}

    # -- durability --------------------------------------------------------------------

    @property
    def durability(self) -> DurabilityManager | None:
        """The durability manager, or ``None`` for an in-memory anonymizer."""
        return self._durability

    def checkpoint(self) -> CheckpointResult:
        """Snapshot the tree, truncate the WAL there; return LSN and directory.

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
        """Drop every recipe's kept runs; flush and close the durability layer."""
        self._drop_kept_runs()
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "RTreeAnonymizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
    def schema(self) -> Schema:
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
