"""The benchmark-regression trail: pinned core runs and baseline comparison.

``repro bench`` runs a pinned-seed subset of the paper figures — bulk-load
time, scaling, metered I/O, quality — with the :mod:`repro.obs`
instrumentation on, and writes one canonical JSON document
(``BENCH_core.json`` by default) holding, per figure:

* the wall-clock seconds of the run,
* the key hot-path counters (splits, flushes, page I/O, partitions) —
  deterministic under the pinned seeds, so they double as a cheap
  correctness fingerprint,
* the exact workload configuration, and

plus one environment block (interpreter, platform, timestamp, git rev) for
the whole run.  ``repro bench --compare BENCH_core.json --out bench.json``
re-runs the same set (``--out`` must not name the baseline) and prints a per-figure regression report: wall-clock ratios against a
configurable tolerance (timings are machine-dependent, so the default is
generous) and counter drift against a tight tolerance (the counters should
not move at all unless the algorithm changed).

The committed ``BENCH_core.json`` at the repository root is the trail's
first entry; CI re-runs ``repro bench --quick`` on every push and fails
when a figure regresses beyond tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.bench.runner import Timer

#: Version stamp of the bench document; bump on any key change.
BENCH_SCHEMA_VERSION = 1

#: Default output path — the repo-root trail entry.
DEFAULT_BENCH_PATH = "BENCH_core.json"

#: Wall-clock tolerance: current may take up to (1 + tol) x baseline.
#: Generous because absolute timings move with the machine; CI passes a
#: larger value still (cross-machine comparison).
DEFAULT_TIME_TOLERANCE = 1.0

#: Counter tolerance: relative drift allowed on the deterministic counters.
DEFAULT_COUNTER_TOLERANCE = 0.02

#: The obs counters recorded per figure — deterministic under pinned seeds.
KEY_COUNTERS: tuple[str, ...] = (
    "rtree.inserts",
    "rtree.leaf_splits",
    "rtree.internal_splits",
    "buffer_tree.flushes",
    "buffer_tree.pushed_records",
    "page.reads",
    "page.writes",
    "anonymizer.releases",
    "anonymizer.partitions",
    "kernels.keyed_records",
    "kernels.decoded_pages",
    "kernels.decoded_records",
    "parallel.shards",
    "parallel.shard_records",
    "wal.appends",
    "wal.fsyncs",
    "checkpoint.snapshots",
    "recovery.replayed_ops",
    "recovery.discarded_ops",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.epoch_bumps",
    "serve.write_groups",
    "serve.telemetry.scrapes",
    "serve.slow_ops",
    # The query family: query_bench meters its deterministic phase only
    # (the concurrent phase runs with the registry disabled).
    "query.engine_builds",
    "query.count_queries",
    "query.partitions_scanned",
    "serve.queries",
)


def core_figures(quick: bool = False) -> list[tuple[str, dict[str, object]]]:
    """The pinned-seed core set: (figure id, driver kwargs) pairs.

    ``quick`` shrinks every workload to CI-smoke size (seconds, not
    minutes); the committed baseline is a quick run so CI compares
    like-for-like.  Both modes pin every seed and every sweep, so two runs
    of the same mode produce identical counters.
    """
    if quick:
        return [
            ("fig7a", {"records": 4_000, "ks": (5, 25, 100), "seed": 1}),
            ("fig7a_parallel", {"records": 4_000, "workers": (1, 2), "seed": 1}),
            (
                "fig7a_kernels",
                # The kernel side keeps the full million records even in
                # quick mode (it is the point of the figure and costs only
                # seconds); the scalar oracle slice shrinks instead.
                {"records": 1_000_000, "scalar_sample": 20_000, "seed": 1},
            ),
            ("fig8a", {"sizes": (2_000, 4_000), "k": 10, "seed": 3}),
            ("fig8b", {"records": 4_000, "k": 10, "seed": 3}),
            ("fig10", {"records": 4_000, "ks": (10,), "seed": 1}),
            ("recovery", {"records": 2_000, "tail_ops": (0, 200), "k": 10, "seed": 1}),
            (
                "serve",
                {
                    # Windows this short (tens of ms) sit in heavy scheduler
                    # noise; only the best-of-5 minimum resolves the
                    # telemetry-overhead delta.
                    "records": 2_000,
                    "write_rounds": 6,
                    "write_batch": 100,
                    "reads_per_round": 25,
                    "ks": (10, 25),
                    "seed": 1,
                    "repeats": 5,
                },
            ),
            (
                "query_bench",
                {
                    "records": 2_000,
                    "queries": 200,
                    "ks": (10, 25),
                    "reader_counts": (4, 8, 16),
                    "write_batch": 100,
                    "seed": 1,
                },
            ),
        ]
    return [
        ("fig7a", {"records": 20_000, "ks": (5, 25, 100), "seed": 1}),
        ("fig7a_parallel", {"records": 20_000, "workers": (1, 2, 4), "seed": 1}),
        (
            "fig7a_kernels",
            {"records": 1_000_000, "scalar_sample": 100_000, "seed": 1},
        ),
        ("fig8a", {"sizes": (10_000, 20_000), "k": 10, "seed": 3}),
        ("fig8b", {"records": 20_000, "k": 10, "seed": 3}),
        ("fig10", {"records": 20_000, "ks": (10, 50), "seed": 1}),
        ("recovery", {"records": 10_000, "tail_ops": (0, 500, 2_000), "k": 10, "seed": 1}),
        (
            "serve",
            {
                "records": 10_000,
                "write_rounds": 10,
                "write_batch": 200,
                "reads_per_round": 20,
                "ks": (10, 25, 50),
                "seed": 1,
            },
        ),
        (
            "query_bench",
            {
                "records": 10_000,
                "queries": 400,
                "ks": (10, 25, 50),
                "reader_counts": (4, 8, 16),
                "write_batch": 200,
                "seed": 1,
            },
        ),
    ]


def run_core_bench(
    quick: bool = False,
    figures: Sequence[tuple[str, Mapping[str, object]]] | None = None,
) -> dict[str, object]:
    """Run the core set instrumented and return the bench document.

    Toggles the process-wide :data:`repro.obs.OBS` registry around each
    figure (each figure's counters are collected in isolation); leaves it
    disabled and reset afterwards.
    """
    from repro import obs
    from repro.bench.figures import DRIVERS

    if figures is None:
        figures = core_figures(quick)
    results: dict[str, object] = {}
    for name, config in figures:
        driver = DRIVERS[name]
        obs.enable()
        try:
            with Timer() as timer:
                table = driver(**config)  # type: ignore[arg-type]
            counters = {
                counter: obs.OBS.counter_value(counter)
                for counter in KEY_COUNTERS
            }
        finally:
            obs.disable()
            obs.reset()
        entry: dict[str, object] = {
            # Round-trip through JSON so in-memory configs (tuples) compare
            # equal to configs loaded back from a baseline file (lists).
            "config": json.loads(json.dumps(config)),
            "seconds": timer.elapsed,
            "counters": counters,
        }
        extras = getattr(table, "extras", None)
        if extras:
            # Derived scalars (e.g. the serving figure's telemetry-overhead
            # ratio) ride along for the record; compare_bench ignores keys
            # it does not know, so extras never fail a baseline.
            entry["extras"] = json.loads(json.dumps(extras))
        results[name] = entry
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "mode": "quick" if quick else "core",
        "environment": obs.environment_block(),
        "figures": results,
    }


def write_bench(document: Mapping[str, object], path: str | Path) -> Path:
    """Write a bench document as stable, diff-friendly JSON."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def load_bench(path: str | Path) -> dict[str, object]:
    """Load a bench document, validating its schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has bench schema version {version!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    return document


@dataclass
class FigureComparison:
    """One figure's verdict in a regression report."""

    name: str
    #: "ok", "regression", "missing", "config-mismatch" or "new".
    status: str
    messages: list[str] = field(default_factory=list)
    time_ratio: float | None = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing", "config-mismatch")


@dataclass
class ComparisonReport:
    """The full per-figure regression report of current vs baseline."""

    figures: list[FigureComparison]
    time_tolerance: float
    counter_tolerance: float

    @property
    def ok(self) -> bool:
        return not any(figure.failed for figure in self.figures)

    @property
    def regressions(self) -> list[FigureComparison]:
        return [figure for figure in self.figures if figure.failed]

    def render(self) -> str:
        lines = [
            "== bench regression report "
            f"(time tolerance {self.time_tolerance:g}, "
            f"counter tolerance {self.counter_tolerance:g}) =="
        ]
        for figure in self.figures:
            ratio = (
                f" ({figure.time_ratio:.2f}x baseline)"
                if figure.time_ratio is not None
                else ""
            )
            lines.append(f"  {figure.name}: {figure.status}{ratio}")
            for message in figure.messages:
                lines.append(f"    - {message}")
        verdict = "PASS" if self.ok else (
            f"FAIL ({len(self.regressions)} figure(s) regressed)"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def compare_bench(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
    counter_tolerance: float = DEFAULT_COUNTER_TOLERANCE,
) -> ComparisonReport:
    """Compare a fresh bench document against a baseline, figure by figure.

    A figure fails when it vanished, its workload configuration changed
    (the runs would not be comparable — regenerate the baseline), its wall
    clock exceeded ``(1 + time_tolerance) x`` the baseline, or any key
    counter drifted by more than ``counter_tolerance`` relative.  Figures
    present only in the current run are reported as ``new`` and do not
    fail.
    """
    current_figures: Mapping[str, dict] = current.get("figures", {})  # type: ignore[assignment]
    baseline_figures: Mapping[str, dict] = baseline.get("figures", {})  # type: ignore[assignment]
    comparisons: list[FigureComparison] = []
    for name, base in baseline_figures.items():
        entry = current_figures.get(name)
        if entry is None:
            comparisons.append(
                FigureComparison(
                    name, "missing", ["figure absent from the current run"]
                )
            )
            continue
        if entry.get("config") != base.get("config"):
            comparisons.append(
                FigureComparison(
                    name,
                    "config-mismatch",
                    [
                        f"current config {entry.get('config')} != baseline "
                        f"{base.get('config')}; regenerate the baseline"
                    ],
                )
            )
            continue
        messages: list[str] = []
        base_seconds = float(base.get("seconds", 0.0))
        seconds = float(entry.get("seconds", 0.0))
        ratio = seconds / base_seconds if base_seconds > 0 else None
        if ratio is not None and ratio > 1.0 + time_tolerance:
            messages.append(
                f"wall clock {seconds:.3f}s vs baseline {base_seconds:.3f}s "
                f"exceeds {1.0 + time_tolerance:g}x tolerance"
            )
        base_counters: Mapping[str, int] = base.get("counters", {})
        counters: Mapping[str, int] = entry.get("counters", {})
        for counter, base_value in base_counters.items():
            value = counters.get(counter)
            if value is None:
                messages.append(f"counter {counter} missing from current run")
                continue
            reference = max(abs(base_value), 1)
            if abs(value - base_value) / reference > counter_tolerance:
                messages.append(
                    f"counter {counter} drifted: {value} vs baseline "
                    f"{base_value}"
                )
        comparisons.append(
            FigureComparison(
                name,
                "regression" if messages else "ok",
                messages,
                time_ratio=ratio,
            )
        )
    for name in current_figures:
        if name not in baseline_figures:
            comparisons.append(
                FigureComparison(name, "new", ["not in the baseline"])
            )
    return ComparisonReport(comparisons, time_tolerance, counter_tolerance)
