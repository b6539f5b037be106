"""Durable-state orchestration: one directory = one WAL + one snapshot.

:class:`DurabilityConfig` is the opt-in knob callers hand to
:class:`~repro.core.anonymizer.RTreeAnonymizer` (or
:func:`repro.api.open`); :class:`DurabilityManager` owns the directory's
write-ahead log and checkpoint file and exposes the logging hooks the
anonymizer calls *after* each successfully applied mutation.

Protocol invariants the recovery path relies on:

* creating a manager on a fresh directory writes an **initial snapshot**
  of the empty tree at LSN 0, so recovery always has a schema and tree
  configuration to start from — a WAL is never the only durable artifact;
* single operations are logged (and group-commit-synced) one frame each;
  batch and bulk ingestion logs members with the *batched* flag and seals
  them with one ``batch-commit`` frame — an unsealed batch is, by
  definition, unacknowledged and is discarded by recovery;
* a checkpoint first publishes the snapshot (tree and schema, nothing
  about past releases) atomically, then rotates the WAL to start at the
  snapshot LSN; a crash between the two leaves a snapshot plus a WAL
  whose early frames it already covers, which recovery skips by LSN.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.dataset.record import Record
from repro.durability.checkpoint import SNAPSHOT_NAME, write_snapshot
from repro.durability.wal import WAL_NAME, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.schema import Schema
    from repro.index.rtree import RPlusTree
    from repro.storage.pagefile import IOStats


@dataclass(frozen=True)
class DurabilityConfig:
    """Opt-in durability settings for an anonymizer.

    ``dir`` is the durability directory (created if absent; must not
    already hold another store's state — recover that instead).
    ``group_commit_window`` is the fsync batching window in seconds: 0
    syncs every acknowledged operation, a positive value lets consecutive
    single-op appends share one fsync until the window elapses (batch
    ingestion always groups its members under the batch-commit's fsync).
    """

    dir: str | Path
    group_commit_window: float = 0.0

    @property
    def directory(self) -> Path:
        return Path(self.dir)

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME


@dataclass(frozen=True)
class CheckpointResult:
    """Where a checkpoint landed: its LSN and the directory holding it.

    Returned by :meth:`DurabilityManager.checkpoint`, and so by the
    ``checkpoint()`` of :class:`~repro.core.anonymizer.RTreeAnonymizer`
    and :class:`repro.serve.AnonymizerService`.
    """

    lsn: int
    directory: Path


class DurabilityManager:
    """Owns one durability directory's WAL and checkpoint lifecycle."""

    def __init__(
        self,
        config: DurabilityConfig,
        wal: WriteAheadLog,
        *,
        io_stats: "IOStats | None" = None,
    ) -> None:
        self._config = config
        self._wal = wal
        self._io_stats = io_stats
        self._open_batch: int | None = None

    @classmethod
    def create(
        cls,
        config: DurabilityConfig,
        tree: "RPlusTree",
        schema: "Schema",
        *,
        io_stats: "IOStats | None" = None,
    ) -> "DurabilityManager":
        """Initialize a fresh durability directory for a new anonymizer.

        Writes the LSN-0 snapshot of the (empty) tree and an empty WAL.
        Refuses a directory that already holds durable state — silently
        truncating another store's WAL is exactly the data loss this
        subsystem exists to prevent; use :func:`repro.api.recover`.
        """
        directory = config.directory
        directory.mkdir(parents=True, exist_ok=True)
        if config.wal_path.exists() or config.snapshot_path.exists():
            raise ValueError(
                f"{directory} already holds durable state; recover it with "
                "repro.api.recover(dir) instead of opening it fresh"
            )
        write_snapshot(config.snapshot_path, tree=tree, schema=schema, lsn=0)
        wal = WriteAheadLog(
            config.wal_path,
            start_lsn=0,
            group_commit_window=config.group_commit_window,
            io_stats=io_stats,
        )
        return cls(config, wal, io_stats=io_stats)

    @classmethod
    def attach(
        cls,
        config: DurabilityConfig,
        *,
        io_stats: "IOStats | None" = None,
    ) -> "DurabilityManager":
        """Reattach to an already-recovered directory for further appends."""
        wal = WriteAheadLog.open_existing(
            config.wal_path,
            group_commit_window=config.group_commit_window,
            io_stats=io_stats,
        )
        return cls(config, wal, io_stats=io_stats)

    # -- accessors -----------------------------------------------------------

    @property
    def config(self) -> DurabilityConfig:
        return self._config

    @property
    def directory(self) -> Path:
        return self._config.directory

    @property
    def lsn(self) -> int:
        """The LSN of the most recently logged operation."""
        return self._wal.lsn

    # -- mutation logging (called after the in-memory apply succeeds) --------

    def log_insert(self, record: Record) -> int:
        self._assert_no_open_batch("insert")
        return self._wal.append_insert(record)

    def log_delete(self, rid: int, point: Iterable[float]) -> int:
        self._assert_no_open_batch("delete")
        return self._wal.append_delete(rid, tuple(point))

    def log_update(
        self, rid: int, old_point: Iterable[float], record: Record
    ) -> int:
        self._assert_no_open_batch("update")
        return self._wal.append_update(rid, tuple(old_point), record)

    def begin_batch(self) -> None:
        """Start logging batch members (unsealed until :meth:`commit_batch`)."""
        self._assert_no_open_batch("begin a batch")
        self._open_batch = 0

    def log_batched_insert(self, record: Record) -> int:
        if self._open_batch is None:
            raise RuntimeError("no open batch; call begin_batch() first")
        lsn = self._wal.append_insert(record, batched=True)
        self._open_batch += 1
        return lsn

    def commit_batch(self) -> int:
        """Seal the open batch with one fsynced batch-commit frame."""
        if self._open_batch is None:
            raise RuntimeError("no open batch to commit")
        count, self._open_batch = self._open_batch, None
        return self._wal.append_batch_commit(count)

    def _assert_no_open_batch(self, action: str) -> None:
        if self._open_batch is not None:
            raise RuntimeError(
                f"cannot {action} while a batch is open; commit it first"
            )

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, tree: "RPlusTree", schema: "Schema") -> CheckpointResult:
        """Snapshot the tree at the current LSN and truncate the WAL there.

        Returns the checkpoint's LSN and directory.  Must be called at a
        quiescent point: no open batch, loader drained (the anonymizer's
        ``checkpoint()`` guarantees both).
        """
        self._assert_no_open_batch("checkpoint")
        self._wal.sync()
        lsn = self._wal.lsn
        write_snapshot(self._config.snapshot_path, tree=tree, schema=schema, lsn=lsn)
        # Rotate: the snapshot now covers everything up to ``lsn``, so the
        # WAL restarts there.  A crash before this line leaves frames the
        # snapshot already covers; recovery skips them by LSN.
        self._wal.close()
        self._wal = WriteAheadLog(
            self._config.wal_path,
            start_lsn=lsn,
            group_commit_window=self._config.group_commit_window,
            io_stats=self._io_stats,
        )
        return CheckpointResult(lsn=lsn, directory=self.directory)

    def sync(self) -> None:
        self._wal.sync()

    def close(self) -> None:
        self._wal.close()
