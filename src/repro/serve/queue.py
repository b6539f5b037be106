"""The bounded write queue feeding the service's single writer thread.

Mutations enter as :class:`WriteOp` items through a ``queue.Queue`` with a
hard size bound — a producer that outruns the writer blocks (or times
out) instead of growing memory without limit.  The writer drains the
queue in **groups**: any run of consecutive writes — inserts, insert
batches, deletes and updates alike — up to ``max_batch`` of them, in
submission order, so the service applies it as one write group under
one WAL commit (group commit).  Only a barrier (or ``max_batch``) breaks
a run; a barrier is a group of its own.
"""

from __future__ import annotations

import queue as _queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs import record


@dataclass
class WriteOp:
    """One queued mutation: kind, payload, and the future that resolves it.

    ``enqueued_at`` is the ``time.perf_counter()`` stamp taken at submit
    time; :meth:`WriteQueue.take_group` reports the wait from it to the
    writer's pickup as a ``serve.queue_wait`` span.
    """

    kind: str  # "insert" | "insert_batch" | "delete" | "update" | "barrier"
    payload: tuple
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)


#: Sentinel closing the queue; always the last item the writer sees.
_STOP = object()


class WriteQueue:
    """A bounded FIFO of write operations with group-coalescing takes."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._queue: _queue.Queue = _queue.Queue(maxsize)
        self._pending: list[object] = []  # one item deferred by coalescing

    @property
    def maxsize(self) -> int:
        return self._queue.maxsize

    def depth(self) -> int:
        """Approximate queued-op count (racy by nature, fine for gauges)."""
        return self._queue.qsize() + len(self._pending)

    def put(self, op: WriteOp, timeout: float | None = None) -> None:
        """Enqueue, blocking while the queue is full (the backpressure).

        Raises ``queue.Full`` when ``timeout`` elapses first.
        """
        self._queue.put(op, timeout=timeout)

    def put_stop(self) -> None:
        """Enqueue the terminal sentinel (blocks until there is room)."""
        self._queue.put(_STOP)

    def take_group(self, max_batch: int) -> Sequence[WriteOp] | None:
        """Block for the next group of operations; ``None`` means stop.

        A group is either a run of up to ``max_batch`` consecutive writes
        of any kind (coalesced for group commit) or exactly one barrier.
        A barrier or the stop sentinel that would break a run is deferred
        — never reordered — to the next call.  Each member's wait since
        submit is reported as a ``serve.queue_wait`` span.
        """
        first = self._pending.pop() if self._pending else self._queue.get()
        if first is _STOP:
            return None
        assert isinstance(first, WriteOp)
        group = [first]
        if first.kind != "barrier":
            while len(group) < max_batch:
                try:
                    item = self._queue.get_nowait()
                except _queue.Empty:
                    break
                if item is _STOP or item.kind == "barrier":  # type: ignore[union-attr]
                    self._pending.append(item)
                    break
                group.append(item)  # type: ignore[arg-type]
        taken = time.perf_counter()
        for op in group:
            waited = taken - op.enqueued_at
            record("serve.queue_wait", op.enqueued_at, waited, kind=op.kind)
        return group
