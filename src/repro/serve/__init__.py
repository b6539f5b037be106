"""repro.serve — concurrent release serving over a live anonymizer.

Real indexes serve reads *while* being updated; this package gives the
anonymization index the same property.  :class:`AnonymizerService` wraps
one :class:`~repro.core.anonymizer.RTreeAnonymizer` behind a
single-writer/multi-reader protocol:

* **writers** submit mutations into a bounded queue (backpressure instead
  of unbounded memory growth); a dedicated writer thread applies them
  under the write lock, coalescing runs of inserts into one
  group-committed batch (one buffered tree pass, one WAL batch-commit
  fsync);
* **readers** call :meth:`AnonymizerService.release` and get an immutable
  :class:`~repro.core.partition.Release` stamped with its epoch —
  computed under the lock on a miss, served from the epoch-validated
  :class:`ReleaseCache` (the service's one read cache) on a hit, and
  never a view of a tree mid-mutation; :meth:`AnonymizerService.query`
  answers from the query engine the cached release carries;
* every applied write group bumps the service **epoch**, lazily
  invalidating cached releases, so a reader can never observe a
  pre-mutation release after its mutation was acknowledged.

Live telemetry is opt-in: pass a
:class:`~repro.obs.live.TelemetryConfig` on the :class:`ServiceConfig`
to expose ``/metrics`` (Prometheus text) and ``/healthz`` (JSON with a
writer-heartbeat health verdict), and to log slow operations to JSONL.
``repro top`` renders the endpoint as a refreshing dashboard.

See docs/API.md ("Serving"), docs/OBSERVABILITY.md, and TUTORIAL §11
for the walkthrough.
"""

from repro.obs.live import TelemetryConfig
from repro.serve.cache import ReleaseCache
from repro.serve.queue import WriteOp, WriteQueue
from repro.serve.service import (
    AnonymizerService,
    ServiceClosedError,
    ServiceConfig,
)

__all__ = [
    "AnonymizerService",
    "ReleaseCache",
    "ServiceClosedError",
    "ServiceConfig",
    "TelemetryConfig",
    "WriteOp",
    "WriteQueue",
]
