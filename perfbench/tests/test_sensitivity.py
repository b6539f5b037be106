"""The layer-to-metric map holds: a slowed layer shows where it should.

A 30% delay is injected into ``core.compact`` through the traced-run
wrapper (the wrapper sleeps 30% of each compaction call's own time).  On a
tiny ``serve_publish`` the delay must show in ``core.compact_ms`` and in
the externally timed publish latency; on a tiny ``query_serve`` it must
not show in the median query batch, because compaction runs only in the
rare batches that follow a write.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest
import workloads

DELAY = 0.3
SECONDS = 4.0


def _passes(workload: str, workdir: Path):
    """Three traced passes each way, alternating which runs first."""
    plain, delayed = [], []
    for slowed in (False, True, True, False, False, True):
        outcome = workloads.run_workload(
            workload,
            7,
            SECONDS,
            workdir,
            traced=True,
            delays={"core.compact": DELAY} if slowed else None,
            setup_repeats=1,
        )
        assert outcome.correct, outcome.errors
        (delayed if slowed else plain).append(outcome)
    return plain, delayed


def _compact_ms(outcomes) -> float:
    """Median self time of every timed compaction call, pooled over passes."""
    values = []
    for outcome in outcomes:
        own = outcome.recorder.self_seconds()
        values.extend(own[span.span_id] for span in outcome.recorder.named("core.compact"))
    return statistics.median(values) * 1e3


def _p50_ms(outcomes, latency: str | None) -> float:
    """Median latency pooled over passes (``None``: the step latency)."""
    values = []
    for outcome in outcomes:
        values.extend(outcome.step_seconds if latency is None else outcome.latencies[latency])
    return statistics.median(values) * 1e3


@pytest.mark.usefixtures("tiny")
def test_compaction_delay_shows_in_publish_latency(tmp_path: Path) -> None:
    plain, delayed = _passes("serve_publish", tmp_path)
    compact = _compact_ms(plain)
    slowed = _compact_ms(delayed)
    assert slowed > 1.15 * compact, (slowed, compact)
    # At least half of the injected time per publish reaches the latency
    # the client sees.
    injected = DELAY * compact
    rise = _p50_ms(delayed, "publish") - _p50_ms(plain, "publish")
    assert rise > 0.5 * injected, (rise, injected)


@pytest.mark.usefixtures("tiny")
def test_compaction_delay_stays_out_of_median_query_batch(tmp_path: Path) -> None:
    plain, delayed = _passes("query_serve", tmp_path)
    # Compaction happens only in the batches right after a write, far
    # fewer than half of them, so the median batch never contains it.
    for outcome in delayed:
        steps = {span.step for span in outcome.recorder.named("core.compact")}
        assert 0 < len(steps) < 0.1 * outcome.steps
    # Were compaction on the median batch's path, the median would rise by
    # at least the injected time; machine noise between passes moves it by
    # up to about a third of that.
    injected = DELAY * _compact_ms(plain)
    rise = _p50_ms(delayed, None) - _p50_ms(plain, None)
    assert rise < injected, (rise, injected)
