"""Durability subsystem: WAL, checkpoint snapshots, crash recovery.

See :mod:`repro.durability.manager` for the protocol invariants, and
``docs/API.md`` for the user-facing tour.  The public surface:

* :class:`DurabilityConfig` — the opt-in knob for
  :class:`~repro.core.anonymizer.RTreeAnonymizer` / :func:`repro.api.open`;
* :func:`recover` — rebuild an anonymizer from a durability directory
  (also :func:`repro.api.recover`); the :class:`RecoveryResult` holds
  the live anonymizer and the replay evidence;
* :class:`RecoveryError` and its subclasses — every corruption is loud;
* :class:`DurabilityError` — a handle whose log write failed has stopped;
* :mod:`repro.durability.faults` — the fault-injection harness CI runs.
"""

from repro.durability.checkpoint import (
    SNAPSHOT_NAME,
    Snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.durability.errors import (
    DurabilityError,
    RecoveryError,
    SnapshotCorruption,
    WalCorruption,
)
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.recovery import RecoveryResult, recover
from repro.durability.wal import WAL_NAME, WriteAheadLog, read_wal

__all__ = [
    "DurabilityConfig",
    "DurabilityError",
    "DurabilityManager",
    "RecoveryError",
    "RecoveryResult",
    "SNAPSHOT_NAME",
    "Snapshot",
    "SnapshotCorruption",
    "WAL_NAME",
    "WalCorruption",
    "WriteAheadLog",
    "read_snapshot",
    "read_wal",
    "recover",
    "write_snapshot",
]
