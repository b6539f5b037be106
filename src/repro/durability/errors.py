"""Durability error taxonomy.

Every failure the recovery path can hit maps onto one exception family so
callers (the CLI, the fault-injection grid, CI) can assert the contract the
paper's incremental story needs: recovery either reconstructs the exact
pre-crash k-grouping or it raises — it never serves a silently corrupt
release.
"""

from __future__ import annotations


class RecoveryError(RuntimeError):
    """Durable state could not be restored exactly.

    Raised for any defect recovery cannot prove harmless: a corrupt or
    unreadable snapshot, a torn or bit-flipped WAL frame, an LSN gap, or a
    replayed operation that no longer applies to the restored tree.
    """


class WalCorruption(RecoveryError):
    """A write-ahead-log frame failed validation (CRC, framing, LSN order)."""

    def __init__(self, path: object, offset: int, reason: str) -> None:
        super().__init__(f"{path}: WAL corrupt at byte {offset}: {reason}")
        self.path = str(path)
        self.offset = offset
        self.reason = reason


class SnapshotCorruption(RecoveryError):
    """A checkpoint snapshot failed validation (magic, CRC, structure)."""

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"{path}: snapshot corrupt: {reason}")
        self.path = str(path)
        self.reason = reason


class DurabilityError(RuntimeError):
    """A write-ahead-log write failed, so the durable handle stopped: every
    later write, release and checkpoint raises this, chained to it."""
