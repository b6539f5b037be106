"""End-to-end and per-layer metrics derived from one workload outcome.

End-to-end metrics come from an untraced pass and are reported on every
workload.  Per-layer metrics come from a traced pass: span self times
(a span minus the time its child spans cover) for the timings, and the
``repro.obs`` registry over the timed window for the counts.  See
``perfbench/README.md`` for which end-to-end metric each layer metric is
expected to move, and on which workload.
"""

from __future__ import annotations

import math
import statistics

from spans import Span
from workloads import Outcome

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ncp_per_record": "ncp",
}

#: The timing metrics whose traced-minus-untraced share is the overhead.
OVERHEAD_OF = ("setup_s", "throughput_per_s", "step_p50_ms", "step_p90_ms")

PER_LAYER = {
    "index.load_s": "s",
    "index.insert_batch_ms": "ms",
    "index.delete_ms": "ms",
    "index.update_ms": "ms",
    "index.leaf_splits_per_1k": "count",
    "index.buffer_flushes_per_1k": "count",
    "parallel.scan_s": "s",
    "core.release_ms": "ms",
    "core.group_ms": "ms",
    "core.compact_ms": "ms",
    "core.digest_ms": "ms",
    "core.partitions_per_release": "count",
    "obs.audit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.commit_ms": "ms",
    "serve.groups_per_step": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.release_ms": "ms",
    "serve.release_covered_share": "ratio",
    "serve.release_uncovered_share": "ratio",
    "durability.fsyncs_per_step": "count",
    "durability.fsync_ms": "ms",
    "durability.wal_bytes_per_record": "B",
    "query.engine_build_ms": "ms",
    "query.evaluate_us_per_query": "us",
    "query.nodes_visited_per_query": "count",
    "query.partitions_scanned_per_query": "count",
    "query.engine_cache_hit_ratio": "ratio",
    **{f"trace.overhead_{name}": "ratio" for name in OVERHEAD_OF},
}

def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count)."""
    steps = outcome.step_seconds
    return {
        "setup_s": (statistics.median(outcome.setup_seconds), len(outcome.setup_seconds)),
        "throughput_per_s": (outcome.work / outcome.timed_seconds, outcome.work),
        "step_p50_ms": (quantile(steps, 0.5) * 1e3, len(steps)),
        "step_p90_ms": (quantile(steps, 0.9) * 1e3, len(steps)),
        "peak_rss_mb": (outcome.peak_rss_mb, 1),
        "ncp_per_record": (outcome.ncp_per_record, 1),
    }


def named(outcome: Outcome) -> dict[str, tuple[float, str, int]]:
    """Workload-specific names for the same measurements, plus the error
    rate: name -> (value, unit, samples)."""

    def ms(values: list[float], q: float) -> tuple[float, str, int]:
        return quantile(values, q) * 1e3, "ms", len(values)

    throughput = (outcome.work / outcome.timed_seconds, "1/s", outcome.work)
    if outcome.workload == "bulk_anonymize":
        rows = {"records_per_s": throughput}
    elif outcome.workload == "serve_publish":
        publish = outcome.latencies["publish"]
        rows = {
            "write_p50_ms": ms(outcome.latencies["write"], 0.5),
            "publish_p50_ms": ms(publish, 0.5),
            "publish_p90_ms": ms(publish, 0.9),
        }
    else:
        rows = {
            "query_qps": throughput,
            "query_p50_ms": ms(outcome.step_seconds, 0.5),
            "query_p90_ms": ms(outcome.step_seconds, 0.9),
        }
    rows["error_rate"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0,
        "fraction",
        outcome.attempted,
    )
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Outcome, untraced: Outcome) -> dict[str, float]:
    """Every per-layer metric from a traced pass; zero where a layer idles."""
    recorder = traced.recorder
    assert recorder is not None and traced.registry is not None
    counters: dict[str, int] = traced.registry["counters"]  # type: ignore[assignment]
    histograms: dict[str, dict] = traced.registry["histograms"]  # type: ignore[assignment]
    own = recorder.self_seconds()

    def timed(name: str, *, with_setup: bool = False) -> list[Span]:
        return [
            span
            for span in recorder.spans
            if span.name == name
            and (isinstance(span.step, int) or (with_setup and span.step == "setup"))
        ]

    def self_p50(name: str, scale: float, *, with_setup: bool = False) -> float:
        values = [own[span.span_id] for span in timed(name, with_setup=with_setup)]
        return quantile(values, 0.5) * scale

    def histogram_p50_ms(name: str) -> float:
        histogram = histograms.get(name)
        return histogram["p50"] * 1e3 if histogram else 0.0

    # serve.release spans that recomputed (a core.release child) versus the
    # share of them that the core.release, core.digest and obs.audit child
    # spans cover.
    children: dict[int, list[Span]] = {}
    for span in recorder.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    covered_names = {"core.release", "core.digest", "obs.audit"}
    misses = [
        span
        for span in timed("serve.release")
        if any(child.name == "core.release" for child in children.get(span.span_id, ()))
    ]
    release_total = sum(span.seconds for span in misses)
    covered = sum(
        child.seconds
        for span in misses
        for child in children.get(span.span_id, ())
        if child.name in covered_names
    )
    covered_share = _ratio(covered, release_total)

    written = traced.records_written
    queries = traced.queries
    steps = traced.steps
    metrics = {
        "index.load_s": self_p50("index.load", 1.0, with_setup=True),
        "index.insert_batch_ms": self_p50("index.insert_batch", 1e3),
        "index.delete_ms": self_p50("index.delete", 1e3),
        "index.update_ms": self_p50("index.update", 1e3),
        "index.leaf_splits_per_1k": _ratio(counters["rtree.leaf_splits"] * 1e3, written),
        "index.buffer_flushes_per_1k": _ratio(counters["buffer_tree.flushes"] * 1e3, written),
        "parallel.scan_s": self_p50("parallel.scan", 1.0, with_setup=True),
        "core.release_ms": self_p50("core.release", 1e3),
        "core.group_ms": self_p50("core.group", 1e3),
        "core.compact_ms": self_p50("core.compact", 1e3),
        "core.digest_ms": self_p50("core.digest", 1e3),
        "core.partitions_per_release": _ratio(
            counters["anonymizer.partitions"], counters["anonymizer.releases"]
        ),
        "obs.audit_ms": self_p50("obs.audit", 1e3),
        "serve.queue_wait_ms": histogram_p50_ms("serve.queue_wait_seconds"),
        "serve.commit_ms": histogram_p50_ms("serve.commit_seconds"),
        "serve.groups_per_step": _ratio(counters["serve.write_groups"], steps),
        "serve.cache_hit_ratio": _ratio(
            counters["serve.cache_hits"],
            counters["serve.cache_hits"] + counters["serve.cache_misses"],
        ),
        "serve.release_ms": quantile([span.seconds for span in misses], 0.5) * 1e3,
        "serve.release_covered_share": covered_share,
        "serve.release_uncovered_share": 1.0 - covered_share if misses else 0.0,
        "durability.fsyncs_per_step": _ratio(counters["wal.fsyncs"], steps),
        "durability.fsync_ms": histogram_p50_ms("wal.fsync_seconds"),
        "durability.wal_bytes_per_record": _ratio(counters["wal.bytes"], written),
        "query.engine_build_ms": self_p50("query.engine_build", 1e3),
        "query.evaluate_us_per_query": _ratio(
            sum(own[span.span_id] for span in timed("query.evaluate")) * 1e6, queries
        ),
        "query.nodes_visited_per_query": _ratio(counters["query.nodes_visited"], queries),
        "query.partitions_scanned_per_query": _ratio(
            counters["query.partitions_scanned"], queries
        ),
        "query.engine_cache_hit_ratio": _ratio(
            counters["query.engine_cache_hits"],
            counters["query.engine_cache_hits"] + counters["query.engine_builds"],
        ),
    }
    with_trace = end_to_end(traced)
    without = end_to_end(untraced)
    for name in OVERHEAD_OF:
        metrics[f"trace.overhead_{name}"] = _ratio(
            with_trace[name][0] - without[name][0], without[name][0]
        )
    return metrics
