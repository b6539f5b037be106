"""Durable-state orchestration: one directory = one WAL + one snapshot.

:class:`DurabilityConfig` is the opt-in knob callers hand to
:class:`~repro.core.anonymizer.RTreeAnonymizer` (or
:func:`repro.api.open`); :class:`DurabilityManager` owns the directory's
write-ahead log and checkpoint file and logs each write group
(:meth:`~repro.core.anonymizer.RTreeAnonymizer.write`) through one
begin/log/commit sequence.

Protocol invariants the recovery path relies on:

* creating a manager on a fresh directory writes an **initial snapshot**
  of the empty tree at LSN 0, so recovery always has a schema and tree
  configuration to start from — a WAL is never the only durable artifact;
* a group of exactly one insert, delete or update is one unbatched,
  fsynced frame; any other group is *batched* members sealed by one
  fsynced ``batch-commit`` frame — an unsealed batch is, by definition,
  unacknowledged and is discarded by recovery;
* a failed append or commit stops the manager: every later group and
  checkpoint (and the anonymizer's releases) raise
  :class:`~repro.durability.errors.DurabilityError`;
* a checkpoint first publishes the snapshot (tree and schema, nothing
  about past releases) atomically, then rotates the WAL to start at the
  snapshot LSN; a crash between the two leaves a snapshot plus a WAL
  whose early frames it already covers, which recovery skips by LSN.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.durability.checkpoint import SNAPSHOT_NAME, write_snapshot
from repro.durability.errors import DurabilityError
from repro.durability.wal import WAL_NAME, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.schema import Schema
    from repro.index.rtree import RPlusTree
    from repro.storage.pagefile import IOStats


@dataclass(frozen=True)
class DurabilityConfig:
    """Opt-in durability settings for an anonymizer.

    ``dir`` is the durability directory (created if absent; must not
    already hold another store's state — recover that instead).  Each
    write group is fsynced once before it is acknowledged.
    """

    dir: str | Path

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
        #: The open batched group's member count (None otherwise).
        self._members: int | None = None
        self._failure: BaseException | None = None

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
        wal = WriteAheadLog(config.wal_path, start_lsn=0, io_stats=io_stats)
        return cls(config, wal, io_stats=io_stats)

    @classmethod
    def attach(
        cls,
        config: DurabilityConfig,
        *,
        io_stats: "IOStats | None" = None,
    ) -> "DurabilityManager":
        """Reattach to an already-recovered directory for further appends."""
        wal = WriteAheadLog.open_existing(config.wal_path, io_stats=io_stats)
        return cls(config, wal, io_stats=io_stats)

    # -- accessors -----------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._config.directory

    @property
    def lsn(self) -> int:
        """The LSN of the most recently logged operation."""
        return self._wal.lsn

    def check(self) -> None:
        """Raise :class:`DurabilityError` once a log write has failed."""
        if self._failure is not None:
            raise DurabilityError(
                f"the write-ahead log in {self.directory} failed "
                f"({self._failure!r}); this handle is stopped — recover "
                "the directory to continue from the last acknowledged write"
            ) from self._failure

    # -- one write group: begin, log each applied op, commit -----------------

    def begin(self, batched: bool) -> None:
        """Open a write group; ``batched`` unless it is one single-record op."""
        self.check()
        self._members = 0 if batched else None

    def log(self, op: tuple) -> None:
        """Log one applied op of the open group; an unbatched frame syncs."""
        batched = self._members is not None
        self._append(op, batched)
        if batched:
            self._members += 1  # type: ignore[operator]

    def start_run(self) -> None:
        """An insert run starts: after other members of its group it is
        marked by a run break (a batched ``batch_commit`` of 0), which
        keeps replay from loading it in one pass with an earlier run."""
        if self._members:
            self._append(("batch_commit", 0), True)

    def commit(self) -> None:
        """Close the open group; a batched one is sealed by one fsynced frame.

        After a failed append nothing is sealed.
        """
        members, self._members = self._members, None
        if members is not None and self._failure is None:
            self._append(("batch_commit", members), False)

    def _append(self, op: tuple, batched: bool) -> None:
        try:
            self._wal.append(op, batched=batched)
        except BaseException as error:
            self._failure = error
            raise

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, tree: "RPlusTree", schema: "Schema") -> CheckpointResult:
        """Snapshot the tree at the current LSN and truncate the WAL there.

        Returns the checkpoint's LSN and directory.  Must be called at a
        quiescent point: no open group, loader drained (the anonymizer's
        ``checkpoint()`` guarantees both).
        """
        self.check()
        if self._members is not None:
            raise RuntimeError("cannot checkpoint while a batch is open")
        self._wal.sync()
        lsn = self._wal.lsn
        write_snapshot(self._config.snapshot_path, tree=tree, schema=schema, lsn=lsn)
        # Rotate: the snapshot now covers everything up to ``lsn``, so the
        # WAL restarts there.  A crash before this line leaves frames the
        # snapshot already covers; recovery skips them by LSN.
        self._wal.close()
        self._wal = WriteAheadLog(
            self._config.wal_path, start_lsn=lsn, io_stats=self._io_stats
        )
        return CheckpointResult(lsn=lsn, directory=self.directory)

    def sync(self) -> None:
        self._wal.sync()

    def close(self) -> None:
        """Close the log; a failed one is released without raising again."""
        try:
            self._wal.close()
        except OSError:
            if self._failure is None:
                raise
