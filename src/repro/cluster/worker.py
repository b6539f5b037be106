"""The shard worker process: one key range, one service, one socket.

Each worker owns one contiguous Hilbert-key range of the cluster's
:class:`~repro.parallel.planner.ShardPlan` and runs a full
single-writer stack for it — its own
:class:`~repro.core.anonymizer.RTreeAnonymizer` (optionally with its own
WAL directory) wrapped in its own
:class:`~repro.serve.service.AnonymizerService`, so every per-shard
property the serving layer already proves (group commit, epoch
semantics, journal replay, WAL durability) holds unchanged inside a
shard.  The worker's loop is strict request/reply over the inherited
socket: receive one frame, apply it through the service, reply.

Because mutations are applied *synchronously* before the reply frame is
sent, the worker is quiescent whenever it answers — in particular a
``collect`` reply (the scatter half of a cluster release) reads the
engine with no writer racing it, and the epoch it reports counts exactly
the mutations acknowledged before it.
"""

from __future__ import annotations

import pickle
import socket
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cluster.protocol import EndOfStream, recv_frame, send_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.schema import Schema
    from repro.parallel.planner import ShardPlan
    from repro.serve.service import AnonymizerService, ServiceConfig


def _portable(error: BaseException) -> BaseException:
    """An exception safe to pickle back to the router.

    Exceptions carrying unpicklable payloads (a closure, a socket) are
    rewritten as a plain ``RuntimeError`` with the original rendering —
    the router must always get *a* reply, never a died-mid-send worker.
    """
    try:
        pickle.dumps(error)
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def _collect_run(service: "AnonymizerService", plan: "ShardPlan") -> tuple:
    """The shard's records in global ``(key, rid)`` order, with its epoch.

    The request/reply discipline guarantees no mutation is in flight, but
    the engine may still hold loader-buffered records or an unfinished
    bulk mode (mirroring ``RTreeAnonymizer.anonymize``'s own drains).
    """
    from repro.index.bulk import hilbert_ordered

    engine = service.engine
    if engine.loader.buffered_records:
        engine.loader.drain()
    elif engine.tree.in_bulk_mode:
        engine.tree.finish_bulk()
    records = [
        record for leaf in engine.tree.leaves() for record in leaf.records
    ]
    run = hilbert_ordered(records, plan.lows, plan.highs, plan.bits)
    return (service.epoch, run)


def _handle(
    service: "AnonymizerService",
    plan: "ShardPlan",
    op: str,
    args: tuple,
) -> object:
    if op == "insert_batch":
        return service.insert_batch(args[0])
    if op == "delete":
        rid, point = args
        return service.delete(rid, point)
    if op == "update":
        rid, old_point, record = args
        return service.update(rid, old_point, record)
    if op == "collect":
        return _collect_run(service, plan)
    if op == "epoch":
        return service.epoch
    if op == "barrier":
        return service.barrier()
    if op == "health":
        return service.health()
    if op == "metrics":
        from repro.obs import OBS

        snapshot = OBS.snapshot() if OBS.enabled else None
        return (snapshot, service.health(), service.epoch)
    if op == "journal":
        return service.journal
    if op == "len":
        return len(service)
    if op == "ping":
        return "pong"
    if op == "close":
        return True
    raise ValueError(f"unknown shard op {op!r}")


def shard_worker_main(
    sock: socket.socket,
    index: int,
    schema: "Schema",
    plan: "ShardPlan",
    base_k: int,
    service_config: "ServiceConfig",
    durability_dir: str | None,
    enable_obs: bool,
) -> None:
    """The worker process entry point (module-level so it spawns too).

    Builds the shard's engine + service, then serves the request loop
    until a ``close`` op or the router's end of the socket vanishes.
    ``enable_obs`` carries the router's registry state across the process
    boundary so per-shard ``serve.*`` counters exist exactly when the
    cluster's do.
    """
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.dataset.table import Table
    from repro.serve.service import AnonymizerService

    if enable_obs:
        from repro import obs

        obs.enable()
    durability = None
    if durability_dir is not None:
        from repro.durability.manager import DurabilityConfig

        durability = DurabilityConfig(dir=Path(durability_dir))
    engine = RTreeAnonymizer(
        Table(schema, ()), base_k=base_k, durability=durability
    )
    service = AnonymizerService(engine, service_config)
    try:
        while True:
            try:
                request = recv_frame(sock)
            except EndOfStream:
                break
            seq, op, args = request  # type: ignore[misc]
            try:
                result = _handle(service, plan, op, args)
            except BaseException as error:  # the reply *is* the error path
                send_frame(sock, (seq, "err", _portable(error)))
            else:
                send_frame(sock, (seq, "ok", result))
                if op == "close":
                    break
    finally:
        try:
            service.close()
        except Exception:
            pass
        try:
            sock.close()
        except OSError:
            pass
