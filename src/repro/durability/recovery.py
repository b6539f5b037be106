"""Crash recovery: snapshot restore plus WAL tail replay.

:func:`recover` rebuilds an anonymizer from a durability directory so that
its next release is bit-identical (same partitions, same boxes, same
digest) to what the pre-crash anonymizer would have published after its
last *acknowledged* operation:

1. read and validate the checkpoint snapshot (always present — the
   manager writes an LSN-0 snapshot on creation);
2. read and validate the WAL; every defect raises
   :class:`~repro.durability.errors.RecoveryError` rather than guessing;
3. replay the frames past the snapshot LSN through the *same apply code*
   the live write groups took (``RTreeAnonymizer.write``'s, logging off):
   an unbatched frame is a group of one, batched frames replay as one
   group once their batch-commit seals them — so the split sequence, and
   therefore the leaf partitioning, reproduces exactly;
4. discard any trailing unsealed batch members (they were never
   acknowledged) and truncate them out of the WAL file;
5. reattach a :class:`~repro.durability.manager.DurabilityManager` so the
   recovered anonymizer keeps logging where the old one stopped.

Only the tree comes back, not a history of releases: every release
carries its own audit, so the recovered anonymizer's next release is
audited exactly as the pre-crash one's would have been.

Determinism caveat: a tree built with a non-default split policy must be
recovered with the same policy (policies are code and are not serialized).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.durability.checkpoint import SNAPSHOT_NAME, read_snapshot
from repro.durability.errors import RecoveryError
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.wal import _HEADER, WAL_NAME, WalOp, read_wal
from repro.obs import OBS, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.index.split import SplitPolicy
    from repro.storage.buffer_pool import BufferPool


@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover` reconstructed, with its evidence trail."""

    anonymizer: "RTreeAnonymizer"
    directory: Path
    snapshot_lsn: int
    last_lsn: int
    replayed_ops: int
    skipped_ops: int
    discarded_ops: int


def recover(
    directory: str | Path,
    *,
    split_policy: "SplitPolicy | None" = None,
    pool: "BufferPool | None" = None,
    allow_torn_tail: bool = False,
) -> RecoveryResult:
    """Restore a durable anonymizer from ``directory``.

    Raises :class:`RecoveryError` (or a subclass) on any corruption: a
    recovered tree is exact or it is not served at all.  With
    ``allow_torn_tail=True`` a partial final WAL frame — the signature of
    a crash mid-append — is discarded instead of raised, matching
    classical WAL recovery; the strict default satisfies deployments that
    prefer loud operator intervention over silent truncation.  The
    recovered anonymizer holds its reattached WAL open: close it, or use
    it as a context manager (``with recover(dir).anonymizer as engine:``).
    """
    directory = Path(directory)
    wal_path = directory / WAL_NAME
    snapshot_path = directory / SNAPSHOT_NAME
    if not directory.is_dir():
        raise RecoveryError(f"{directory} is not a directory")
    if not snapshot_path.exists():
        raise RecoveryError(
            f"{directory} holds no checkpoint snapshot ({SNAPSHOT_NAME}); "
            "not a durability directory or its initial snapshot was lost"
        )
    with span("recovery.recover", directory=str(directory)):
        snapshot = read_snapshot(snapshot_path, split_policy=split_policy)
        if wal_path.exists():
            scan = read_wal(wal_path, allow_torn_tail=allow_torn_tail)
        else:
            scan = None
        anonymizer = _restore_anonymizer(snapshot, pool)
        replayed, skipped, discarded, keep_until = _replay(
            anonymizer, snapshot.lsn, scan
        )
        if scan is not None and keep_until < scan.path.stat().st_size:
            # Drop discarded (unsealed/torn) tail bytes so the next scan —
            # and the reattached appender — see only committed frames.
            with open(scan.path, "r+b") as handle:
                handle.truncate(keep_until)
        if OBS.enabled:
            OBS.count("recovery.replayed_ops", replayed)
            OBS.count("recovery.discarded_ops", discarded)
        manager = DurabilityManager.attach(
            DurabilityConfig(directory), io_stats=anonymizer.io_stats()
        )
        anonymizer._attach_durability(manager)
    last_lsn = scan.last_lsn if scan is not None else snapshot.lsn
    return RecoveryResult(
        anonymizer=anonymizer,
        directory=directory,
        snapshot_lsn=snapshot.lsn,
        last_lsn=last_lsn,
        replayed_ops=replayed,
        skipped_ops=skipped,
        discarded_ops=discarded,
    )


def _restore_anonymizer(snapshot, pool) -> "RTreeAnonymizer":
    from repro.core.anonymizer import RTreeAnonymizer

    return RTreeAnonymizer._from_restored(snapshot.schema, snapshot.tree, pool=pool)


def _replay(
    anonymizer: "RTreeAnonymizer",
    snapshot_lsn: int,
    scan,
) -> tuple[int, int, int, int]:
    """Apply the WAL tail; returns (replayed, skipped, discarded, keep_until).

    ``keep_until`` is the byte offset of the end of the last *kept* frame —
    everything after it (an unsealed trailing batch) is discarded.
    """
    if scan is None:
        return 0, 0, 0, 0
    group: list[WalOp] = []  # the open batch's frames
    replayed = skipped = 0
    kept = _HEADER.size  # the end of the last frame outside an open batch
    with span("recovery.replay", frames=len(scan.ops)):
        for frame in scan.ops:
            if frame.lsn <= snapshot_lsn:
                # Pre-rotation frames the snapshot already covers (a crash
                # between snapshot publish and WAL rotation leaves them).
                skipped += 1
            elif frame.batched:
                group.append(frame)
                continue
            elif frame.kind == "batch_commit":
                replayed += _replay_group(anonymizer, scan.path, group, frame)
                group = []
            elif group:
                raise RecoveryError(
                    f"{scan.path}: LSN {frame.lsn} interleaves a "
                    f"{frame.kind} into an unsealed batch"
                )
            else:
                replayed += _replay_group(anonymizer, scan.path, [frame])
            kept = frame.end_offset
    # An unsealed tail was never acknowledged: the WAL ends before it.
    discarded = sum(frame.kind != "batch_commit" for frame in group)
    return replayed, skipped, discarded, kept if group else scan.end_offset


def _replay_group(
    anonymizer: "RTreeAnonymizer",
    path: Path,
    frames: list[WalOp],
    commit: WalOp | None = None,
) -> int:
    """Apply one logged group through the live apply code; count its ops.

    ``commit`` seals a batched group.  Every op must apply: an op the live
    apply refused was never logged, so a refusal here means the log does
    not match the snapshot.
    """
    ops = [frame for frame in frames if frame.kind != "batch_commit"]
    if commit is not None and commit.count != len(ops):
        raise RecoveryError(
            f"{path}: batch-commit at LSN {commit.lsn} seals "
            f"{commit.count} records but {len(ops)} are pending"
        )
    try:
        results = anonymizer._apply(
            [frame.op for frame in frames], commit is not None, None
        )
    except (KeyError, ValueError) as error:
        results = [error] * len(ops)
    for frame, result in zip(ops, results):
        if isinstance(result, Exception):
            raise RecoveryError(
                f"{path}: replay of {frame.kind} at LSN {frame.lsn} failed: "
                f"{result!r} — the log does not match the snapshot"
            ) from result
    return len(ops)
