"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_publish --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's fixed schedule untraced and reports the
end-to-end metrics.  ``--trace 1`` runs the same schedule untraced and
then traced (every layer entry point wrapped, the ``repro.obs`` registry
on) and reports the per-layer metrics plus the tracing overhead; the
spans are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def _git(*args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def run_stamp() -> dict[str, object]:
    """Which code and machine produced the numbers."""
    import numpy

    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "git_revision": revision,
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _write_spans(outcome, path: Path) -> None:
    """One JSON line per span, with its self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    own = outcome.recorder.self_seconds()
    with path.open("w") as handle:
        for span in outcome.recorder.spans:
            row = {**dataclasses.asdict(span), "self_s": own[span.span_id]}
            handle.write(json.dumps(row) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import measures
    import workloads

    if arguments.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {arguments.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = WORK / f"{arguments.workload}-{os.getpid()}"
    try:
        untraced = workloads.run_workload(
            arguments.workload,
            arguments.seed,
            arguments.seconds,
            workdir,
            setup_repeats=1 if arguments.trace else workloads.SETUP_REPEATS,
        )
        outcomes = [untraced]
        if arguments.trace:
            traced = workloads.run_workload(
                arguments.workload,
                arguments.seed,
                arguments.seconds,
                workdir,
                traced=True,
                setup_repeats=1,
            )
            outcomes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {arguments.workload} seed={arguments.seed} "
          f"steps={untraced.steps} (one client, closed loop, fixed schedule)")
    e2e = measures.end_to_end(untraced)
    for name, (value, samples) in e2e.items():
        print(f"  {name:<36} {value:>14.6g} {measures.END_TO_END[name]:<6} n={samples}")
    for name, (value, unit, samples) in measures.named(untraced).items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={samples}")
    if arguments.trace:
        layers = measures.per_layer(traced, untraced)
        print("  per layer (traced pass):")
        for name, value in layers.items():
            print(f"  {name:<36} {value:>14.6g} {measures.PER_LAYER[name]}")
        spans = OUT / f"{arguments.workload}-seed{arguments.seed}.spans.jsonl"
        _write_spans(traced, spans)
        print(f"  spans: {spans.relative_to(ROOT)} ({len(traced.recorder.spans)})")
        metrics = {
            name: {"value": value, "unit": measures.PER_LAYER[name]}
            for name, value in layers.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": measures.END_TO_END[name]}
            for name, (value, _samples) in e2e.items()
        }
    for outcome in outcomes:
        for error in outcome.errors:
            print(f"  CHECK FAILED: {error}")
    print("stamp " + json.dumps(run_stamp(), sort_keys=True))
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    correct = all(outcome.correct for outcome in outcomes)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
