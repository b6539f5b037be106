"""Fault injection for the durability stack, plus the CI crash grid.

The injectors mutate a *clone* of a durability directory the way real
failures would:

* :func:`kill_at_lsn` — truncate the WAL at a frame boundary, simulating a
  crash after that operation's fsync (everything later never hit disk);
* :func:`tear_final_frame` — leave a partial final frame, the signature of
  a crash mid-append;
* :func:`truncate_tail` — chop arbitrary bytes off the WAL tail;
* :func:`flip_bit` — flip one payload bit in the WAL or the snapshot.

:func:`run_fault_grid` is the acceptance harness (run by CI as
``python -m repro.durability.faults``): it drives a scripted workload of
write groups through a durable anonymizer's
:meth:`~repro.core.anonymizer.RTreeAnonymizer.write`, then for **every
kill point** — frames inside a group included — clones the state,
injects the kill, recovers, re-applies the groups whose commit was not
yet durable (exactly what a client that never got its acks would do),
and asserts that the release passes its audit (``release.k_satisfied``)
and that its digest equals the uninterrupted run's.  Every corruption
fault must raise :class:`~repro.durability.errors.RecoveryError` instead
of releasing.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.dataset.record import Record
from repro.durability.checkpoint import SNAPSHOT_NAME
from repro.durability.errors import RecoveryError
from repro.durability.wal import WAL_NAME, _FRAME, _HEADER, read_wal

# -- state surgery -----------------------------------------------------------


def clone_state(source: str | Path, destination: str | Path) -> Path:
    """Copy a durability directory's WAL + snapshot to a fresh directory."""
    source, destination = Path(source), Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    for name in (WAL_NAME, SNAPSHOT_NAME):
        if (source / name).exists():
            shutil.copyfile(source / name, destination / name)
    return destination


def frame_boundaries(directory: str | Path) -> list[tuple[int, int]]:
    """Every ``(lsn, end_offset)`` frame boundary in the directory's WAL."""
    scan = read_wal(Path(directory) / WAL_NAME)
    return [(op.lsn, op.end_offset) for op in scan.ops]


def kill_at_lsn(directory: str | Path, lsn: int) -> None:
    """Truncate the WAL so ``lsn`` is the last durable operation.

    ``lsn`` may also be the WAL's start LSN (kill before any append).
    """
    wal_path = Path(directory) / WAL_NAME
    scan = read_wal(wal_path)
    if lsn == scan.start_lsn:
        offset = _HEADER.size
    else:
        by_lsn = {op.lsn: op.end_offset for op in scan.ops}
        if lsn not in by_lsn:
            raise ValueError(
                f"LSN {lsn} is not a kill point of {wal_path} "
                f"(valid: {scan.start_lsn}..{scan.last_lsn})"
            )
        offset = by_lsn[lsn]
    with open(wal_path, "r+b") as handle:
        handle.truncate(offset)


def tear_final_frame(directory: str | Path) -> None:
    """Cut the last WAL frame roughly in half (a torn write)."""
    wal_path = Path(directory) / WAL_NAME
    scan = read_wal(wal_path)
    if not scan.ops:
        raise ValueError(f"{wal_path} holds no frames to tear")
    last = scan.ops[-1]
    previous_end = scan.ops[-2].end_offset if len(scan.ops) > 1 else _HEADER.size
    torn_at = previous_end + max(_FRAME.size + 1, (last.end_offset - previous_end) // 2)
    with open(wal_path, "r+b") as handle:
        handle.truncate(min(torn_at, last.end_offset - 1))


def truncate_tail(directory: str | Path, nbytes: int) -> None:
    """Chop ``nbytes`` off the end of the WAL file."""
    wal_path = Path(directory) / WAL_NAME
    size = wal_path.stat().st_size
    with open(wal_path, "r+b") as handle:
        handle.truncate(max(0, size - nbytes))


def flip_bit(
    directory: str | Path, *, target: str = "wal", offset: int | None = None
) -> None:
    """XOR one bit inside the WAL (default) or the snapshot payload.

    Without an explicit offset the flip lands mid-way through the last
    frame's payload (WAL) or mid-payload (snapshot) — inside protected
    bytes, never in slack space.
    """
    if target == "wal":
        path = Path(directory) / WAL_NAME
        if offset is None:
            scan = read_wal(path)
            if not scan.ops:
                raise ValueError(f"{path} holds no frames to corrupt")
            last = scan.ops[-1]
            previous_end = (
                scan.ops[-2].end_offset if len(scan.ops) > 1 else _HEADER.size
            )
            offset = previous_end + _FRAME.size + max(
                0, (last.end_offset - previous_end - _FRAME.size) // 2
            )
    elif target == "snapshot":
        path = Path(directory) / SNAPSHOT_NAME
        if offset is None:
            offset = max(16, path.stat().st_size // 2)
    else:
        raise ValueError(f"unknown flip target {target!r}")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"{path}: offset {offset} is past EOF")
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0x40,)))


# -- the crash/corruption grid ------------------------------------------------

#: The corruption faults of the grid; each must make recovery raise.
CORRUPTION_FAULTS: tuple[str, ...] = (
    "torn-write",
    "truncated-tail",
    "bit-flip-wal",
    "bit-flip-snapshot",
)


@dataclass
class GridCell:
    """One grid outcome."""

    scenario: str
    fault: str
    ok: bool
    detail: str = ""


@dataclass
class GridReport:
    """The full fault-grid result."""

    reference_digest: str
    cells: list[GridCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def kill_points(self) -> int:
        return sum(1 for cell in self.cells if cell.fault.startswith("kill@"))

    def render(self) -> str:
        lines = [
            f"fault grid: {len(self.cells)} cells "
            f"({self.kill_points} kill points), reference digest "
            f"{self.reference_digest[:16]}…"
        ]
        failures = [cell for cell in self.cells if not cell.ok]
        for cell in failures:
            lines.append(f"  FAIL {cell.scenario}/{cell.fault}: {cell.detail}")
        lines.append("grid ok" if not failures else f"{len(failures)} cells failed")
        return "\n".join(lines)


def _grid_workload(records: int, seed: int) -> tuple[list, "object"]:
    """A scripted workload of write groups, and its empty schema table.

    A batch load, single ops, one mixed group (an insert batch, a delete
    of a record it inserts, another delete, two updates), then a batch.
    """
    import random

    from repro.dataset.schema import Attribute, Schema
    from repro.dataset.table import Table

    rng = random.Random(seed)
    schema = Schema(
        (
            Attribute.numeric("a", 0, 100),
            Attribute.numeric("b", 0, 100),
        ),
        sensitive=("payload",),
    )

    def fresh(rid: int) -> Record:
        return Record(
            rid,
            (float(rng.randint(0, 100)), float(rng.randint(0, 100))),
            (f"s{rid}",),
        )

    base = [fresh(rid) for rid in range(records)]
    groups: list = [[("insert_batch", tuple(base))]]
    live = {record.rid: record for record in base}
    next_rid = records

    def delete() -> tuple:
        rid = rng.choice(sorted(live))
        return ("delete", rid, live.pop(rid).point)

    def update() -> tuple:
        rid = rng.choice(sorted(live))
        old = live[rid]
        live[rid] = Record(rid, fresh(0).point, old.sensitive)
        return ("update", rid, old.point, live[rid])

    for _ in range(6):
        record = fresh(next_rid)
        groups.append([("insert", record)])
        live[record.rid] = record
        next_rid += 1
    groups.extend([delete()] for _ in range(3))
    groups.extend([update()] for _ in range(3))
    batch = [fresh(next_rid + i) for i in range(4)]
    live.update((record.rid, record) for record in batch[1:])
    first = ("delete", batch[0].rid, batch[0].point)
    groups.append([("insert_batch", tuple(batch)), first, delete(), update(), update()])
    tail = [fresh(next_rid + 4 + i) for i in range(8)]
    groups.append([("insert_batch", tuple(tail))])
    return groups, Table(schema, [])


def run_fault_grid(
    workdir: str | Path,
    *,
    records: int = 48,
    k: int = 5,
    seed: int = 7,
    checkpoint_after_op: int | None = None,
    verbose: bool = False,
) -> GridReport:
    """Run the crash-at-any-LSN property plus every corruption fault.

    ``checkpoint_after_op`` writes a checkpoint after that workload group, so
    the grid also covers recovery from snapshot + WAL tail (kill points
    before the checkpoint LSN are then unreachable from the final state
    and are skipped — their crashes belong to the no-checkpoint scenario).
    """
    from repro.core.anonymizer import DEFAULT_BASE_K, RTreeAnonymizer
    from repro.durability.manager import DurabilityConfig
    from repro.durability.recovery import recover

    workdir = Path(workdir)
    scenario = "checkpointed" if checkpoint_after_op is not None else "plain"
    groups, schema_table = _grid_workload(records, seed)
    base_k = min(DEFAULT_BASE_K, k)

    # The uninterrupted reference run.
    reference_dir = workdir / f"{scenario}-reference"
    anonymizer = RTreeAnonymizer(
        schema_table, base_k=base_k, durability=DurabilityConfig(reference_dir)
    )
    lsns: list[int] = []
    for index, group in enumerate(groups):
        anonymizer.write(group)
        lsns.append(anonymizer.durability.lsn)
        if checkpoint_after_op is not None and index == checkpoint_after_op:
            anonymizer.checkpoint()
    try:
        reference = anonymizer.release(k)
    finally:
        anonymizer.close()

    report = GridReport(reference_digest=reference.digest)
    if not reference.k_satisfied:
        report.cells.append(
            GridCell(scenario, "reference", False, _audit_failure(reference))
        )
    boundaries = frame_boundaries(reference_dir)
    start_lsn = read_wal(reference_dir / WAL_NAME).start_lsn
    kill_lsns = [start_lsn] + [lsn for lsn, _offset in boundaries]

    for kill in kill_lsns:
        cell_dir = workdir / f"{scenario}-kill-{kill}"
        clone_state(reference_dir, cell_dir)
        kill_at_lsn(cell_dir, kill)
        detail, ok = "", True
        try:
            recovered = recover(cell_dir).anonymizer
            try:
                # Re-apply the suffix the crash never acknowledged, the way a
                # client without acks would, then compare releases.
                for group, lsn in zip(groups, lsns):
                    if lsn > kill:
                        recovered.write(group)
                release = recovered.release(k)
            finally:
                recovered.close()
            if not release.k_satisfied:
                ok, detail = False, _audit_failure(release)
            elif release.digest != reference.digest:
                ok, detail = False, f"digest diverged: {release.digest[:16]}…"
        except Exception as error:  # noqa: BLE001 - report, don't crash the grid
            ok, detail = False, f"unexpected {type(error).__name__}: {error}"
        report.cells.append(GridCell(scenario, f"kill@{kill}", ok, detail))
        if verbose:
            print(f"  kill@{kill}: {'ok' if ok else detail}")

    for fault in CORRUPTION_FAULTS:
        cell_dir = workdir / f"{scenario}-{fault}"
        clone_state(reference_dir, cell_dir)
        if fault == "torn-write":
            tear_final_frame(cell_dir)
        elif fault == "truncated-tail":
            truncate_tail(cell_dir, 5)
        elif fault == "bit-flip-wal":
            flip_bit(cell_dir, target="wal")
        else:
            flip_bit(cell_dir, target="snapshot")
        detail, ok = "", True
        try:
            recover(cell_dir).anonymizer.close()
            ok, detail = False, "recovery returned instead of raising"
        except RecoveryError:
            pass
        except Exception as error:  # noqa: BLE001
            ok, detail = False, f"wrong exception {type(error).__name__}: {error}"
        report.cells.append(GridCell(scenario, fault, ok, detail))
        if verbose:
            print(f"  {fault}: {'ok' if ok else detail}")
    return report


def _audit_failure(release) -> str:
    """A failed cell's detail for a release that failed its audit."""
    return "release failed its privacy audit: " + "; ".join(
        release.audit["problems"]
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.durability.faults`` — the CI acceptance grid."""
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="crash/corruption fault grid over the durability stack"
    )
    parser.add_argument("--records", type=int, default=48)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--checkpoint",
        choices=("none", "mid", "all"),
        default="all",
        help=(
            "checkpoint placement: 'none' replays everything from the "
            "LSN-0 snapshot, 'mid' checkpoints mid-workload (bounded "
            "replay), 'all' runs both scenarios"
        ),
    )
    parser.add_argument("--verbose", action="store_true")
    arguments = parser.parse_args(argv)
    scenarios = {"none": (None,), "mid": (0,), "all": (None, 0)}[
        arguments.checkpoint
    ]
    exit_code = 0
    with tempfile.TemporaryDirectory() as workdir:
        for checkpoint_after_op in scenarios:
            report = run_fault_grid(
                Path(workdir) / ("ckpt" if checkpoint_after_op is not None else "plain"),
                records=arguments.records,
                k=arguments.k,
                seed=arguments.seed,
                checkpoint_after_op=checkpoint_after_op,
                verbose=arguments.verbose,
            )
            print(report.render())
            if not report.ok:
                exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
