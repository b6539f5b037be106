"""Command-line entry point: regenerate any paper experiment.

::

    repro list                     # what can be run
    repro table1                   # environment report (Table 1)
    repro fig10                    # Figure 10 at the default scaled size
    repro fig10 --records 50000    # bigger run
    repro all                      # every experiment, default sizes
    repro stats                    # instrumented bulk-load smoke + metrics
    repro fig8b --profile          # any experiment with hot-path metrics
    repro fig7a --profile-json p.jsonl   # machine-readable snapshot trail
    repro fig7a --trace t.json     # Chrome/Perfetto trace of the run
    repro bench                    # pinned-seed core set -> BENCH_core.json
    repro bench --compare BENCH_core.json --out bench.json  # vs baseline
    repro anonymize --workers 4    # sharded parallel bulk anonymization
    repro anonymize --workers 4 --dataset census --records 20000 --k 10
    repro anonymize --dir state/   # durable: WAL + checkpoint in state/
    repro recover --dir state/     # rebuild after a crash, publish a release
    repro checkpoint --dir state/  # offline checkpoint (bounds replay work)
    repro serve-bench              # serving throughput, cached vs uncached
    repro query-bench              # query serving: accuracy + reader throughput
    repro serve-demo --port 8787   # live service with /metrics + /healthz
    repro top --url http://127.0.0.1:8787   # refreshing telemetry dashboard

The data-facing commands (``anonymize``, ``bench``, ``recover``,
``checkpoint``) share one option vocabulary — ``--dataset``, ``--k``,
``--out``, ``--workers``, ``--dir`` — and are all implemented on
:mod:`repro.api`, the consolidated front door (see docs/API.md).

Each experiment prints the same rows the paper plots; see EXPERIMENTS.md
for the recorded paper-vs-measured comparison.  ``--profile`` switches the
:mod:`repro.obs` instrumentation on for the run and prints the collected
counters/histograms afterwards; ``--profile-json`` additionally
appends the snapshot to a JSON-lines file.  ``--trace`` records structured
span events (flush sweeps, splits, page I/O, releases) and writes a
Chrome-trace JSON loadable in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.figures import DRIVERS
from repro.bench.runner import environment_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'K-Anonymization as Spatial Indexing'",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id: 'list', 'all', 'table1', 'stats', 'bench', "
            "or one of the figure ids"
        ),
    )
    parser.add_argument(
        "--records", type=int, default=None, help="override the record count"
    )
    parser.add_argument(
        "--k", type=int, default=None, help="override the anonymity parameter"
    )
    parser.add_argument(
        "--queries", type=int, default=None, help="override the query count"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="additionally write the result rows to a CSV file (plot-ready)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect hot-path metrics (repro.obs) and print them after the run",
    )
    parser.add_argument(
        "--profile-json",
        metavar="PATH",
        default=None,
        help="append the metrics snapshot to a JSON-lines file (implies --profile)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record structured trace events during the run and write a "
            "Chrome-trace JSON (open in chrome://tracing or Perfetto)"
        ),
    )
    shared = parser.add_argument_group(
        "data options (shared by anonymize / bench / recover / checkpoint)"
    )
    shared.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the sharded parallel engine "
            "(1 = the same pipeline in-process; output is identical for "
            "every worker count)"
        ),
    )
    shared.add_argument(
        "--dataset",
        choices=("landsend", "census", "agrawal"),
        default="landsend",
        help="which generator supplies the records (and the schema)",
    )
    shared.add_argument(
        "--dataset-file",
        dest="dataset_file",
        metavar="PATH",
        default=None,
        help=(
            "bulk-load this binary record file instead of generating one "
            "(must match the --dataset schema)"
        ),
    )
    shared.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=(
            "output file: the bench document for 'bench' (default "
            "BENCH_core.json), the release CSV for 'anonymize'/'recover'"
        ),
    )
    shared.add_argument(
        "--dir",
        metavar="PATH",
        default=None,
        help=(
            "durability directory: 'anonymize' write-ahead-logs and "
            "checkpoints into it; 'recover' and 'checkpoint' operate on it"
        ),
    )
    bench = parser.add_argument_group("bench (repro bench ...)")
    bench.add_argument(
        "--quick",
        action="store_true",
        help="bench: shrink the core set to CI-smoke size",
    )
    bench.add_argument(
        "--compare",
        metavar="PATH",
        default=None,
        help="bench: compare against a baseline bench JSON and report regressions",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="bench: wall-clock tolerance for --compare (e.g. 1.0 = up to 2x baseline)",
    )
    live = parser.add_argument_group("live telemetry (repro serve-demo / repro top)")
    live.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve-demo: interface for the telemetry endpoint",
    )
    live.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve-demo: telemetry endpoint port (0 = ephemeral, printed at start)",
    )
    live.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="serve-demo: how long to keep the service alive under load (seconds)",
    )
    live.add_argument(
        "--slow-op-log",
        metavar="PATH",
        default=None,
        help="serve-demo: append slow operations (JSONL, with trace spans) here",
    )
    live.add_argument(
        "--slow-op-threshold",
        type=float,
        default=0.25,
        help="serve-demo: seconds above which an operation is logged as slow",
    )
    live.add_argument(
        "--url",
        default=None,
        help="top: base URL of a running telemetry endpoint (e.g. http://127.0.0.1:8787)",
    )
    live.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="top: seconds between dashboard refreshes",
    )
    live.add_argument(
        "--count",
        type=int,
        default=None,
        help="top: number of frames to render (default: until interrupted)",
    )
    live.add_argument(
        "--no-clear",
        action="store_true",
        help="top: append frames instead of clearing the screen (log-friendly)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = _build_parser().parse_args(argv)
    name = arguments.experiment.lower()
    if name == "list":
        print("Available experiments:")
        print("  table1  (system configuration report)")
        print("  stats   (instrumented bulk-load smoke; implies --profile)")
        print("  bench   (pinned-seed core benchmark trail; see --compare)")
        print("  anonymize (sharded parallel bulk anonymization; see --workers)")
        print("  recover (rebuild a durable anonymizer from --dir after a crash)")
        print("  checkpoint (snapshot a durable --dir, truncating its WAL)")
        print("  serve-bench (alias of 'serve': throughput under write load)")
        print("  query-bench (alias of 'query_bench': scan accuracy + throughput)")
        print("  serve-demo (live service exposing /metrics and /healthz; see --port)")
        print("  top     (refreshing dashboard over a telemetry endpoint; see --url)")
        for key in DRIVERS:
            print(f"  {key}")
        print("  all     (run everything at default sizes)")
        return 0
    if name == "table1":
        environment_report().show()
        return 0
    tracing = arguments.trace is not None
    if tracing:
        from repro import obs

        obs.TRACE.enable()
    try:
        return _dispatch(name, arguments)
    finally:
        if tracing:
            from repro import obs

            obs.TRACE.export_chrome(arguments.trace)
            print(
                f"\ntrace written to {arguments.trace} "
                f"({len(obs.TRACE)} events, {obs.TRACE.dropped} dropped)"
            )
            obs.TRACE.disable()


def _dispatch(name: str, arguments: argparse.Namespace) -> int:
    """Run one experiment id (tracing, if any, is already on)."""
    profiling = arguments.profile or arguments.profile_json is not None
    if name == "serve-bench":  # the serving figure's command-line spelling
        name = "serve"
    if name == "query-bench":  # the query figure's spelling
        name = "query_bench"
    if name == "stats":
        _stats_command(arguments)
        return 0
    if name == "bench":
        return _bench_command(arguments)
    if name == "serve-demo":
        return _serve_demo_command(arguments)
    if name == "top":
        return _top_command(arguments)
    if name == "anonymize":
        return _anonymize_command(arguments)
    if name == "recover":
        return _recover_command(arguments)
    if name == "checkpoint":
        return _checkpoint_command(arguments)
    if profiling:
        from repro import obs

        obs.enable()
    overrides = {
        key: value
        for key, value in (
            ("records", arguments.records),
            ("k", arguments.k),
            ("queries", arguments.queries),
            ("seed", arguments.seed),
        )
        if value is not None
    }
    if name == "all":
        environment_report().show()
        for key, driver in DRIVERS.items():
            applicable = _applicable(driver, overrides)
            result = driver(**applicable)
            result.show()
            if arguments.csv:
                _append_csv(result, arguments.csv, key)
        if profiling:
            _show_profile("all", arguments.profile_json)
        return 0
    driver = DRIVERS.get(name)
    if driver is None:
        print(f"unknown experiment {name!r}; try 'repro list'", file=sys.stderr)
        return 2
    result = driver(**_applicable(driver, overrides))
    result.show()
    if arguments.csv:
        _append_csv(result, arguments.csv, name)
    if profiling:
        _show_profile(name, arguments.profile_json)
    return 0


def _bench_command(arguments: argparse.Namespace) -> int:
    """``repro bench``: run the pinned core set, write/compare the trail.

    Writes the bench document (timings + key obs counters + environment)
    to ``--out`` (default ``BENCH_core.json``), and with ``--compare``
    prints the per-figure regression report against a baseline, returning
    exit code 1 when any figure regressed beyond tolerance.  The baseline
    is loaded before anything runs, and an ``--out`` that names the
    baseline file exits 2 at once: writing there would overwrite the
    baseline and compare the run with itself.
    """
    from pathlib import Path

    from repro.bench.regression import (
        DEFAULT_BENCH_PATH,
        DEFAULT_TIME_TOLERANCE,
        compare_bench,
        load_bench,
        run_core_bench,
        write_bench,
    )

    out = arguments.out if arguments.out is not None else DEFAULT_BENCH_PATH
    baseline = None
    if arguments.compare is not None:
        if Path(out).resolve() == Path(arguments.compare).resolve():
            print(
                f"--out {out} is the --compare baseline; write the run "
                "elsewhere (e.g. --out bench.json)",
                file=sys.stderr,
            )
            return 2
        baseline = load_bench(arguments.compare)
    mode = "quick" if arguments.quick else "core"
    print(f"running the {mode} bench set (pinned seeds, instrumented)...")
    document = run_core_bench(quick=arguments.quick)
    target = write_bench(document, out)
    for figure, entry in document["figures"].items():  # type: ignore[union-attr]
        print(f"  {figure}: {entry['seconds']:.3f}s")
    print(f"bench document written to {target}")
    if baseline is None:
        return 0
    tolerance = (
        arguments.tolerance
        if arguments.tolerance is not None
        else DEFAULT_TIME_TOLERANCE
    )
    report = compare_bench(document, baseline, time_tolerance=tolerance)
    print()
    print(report.render())
    return 0 if report.ok else 1


def _serve_demo_command(arguments: argparse.Namespace) -> int:
    """``repro serve-demo``: a live service with its telemetry endpoint up.

    Runs a telemetry-enabled :class:`~repro.serve.AnonymizerService` under
    a steady write/release load for ``--duration`` seconds, printing the
    endpoint URL first so a scraper (CI's smoke job, ``repro top``,
    Prometheus) can attach while it runs.  With ``--slow-op-log`` every
    operation slower than ``--slow-op-threshold`` lands in the JSONL log
    with its recent trace spans attached.
    """
    import time

    from repro import api, obs

    records = arguments.records if arguments.records is not None else 5_000
    k = arguments.k if arguments.k is not None else 10
    seed = arguments.seed if arguments.seed is not None else 1
    profiling = arguments.profile or arguments.profile_json is not None
    obs.enable()
    from repro.dataset.landsend import make_landsend_table

    table = make_landsend_table(records, seed=seed)
    telemetry = api.TelemetryConfig(
        endpoint=True,
        host=arguments.host,
        port=arguments.port,
        slow_op_log=arguments.slow_op_log,
        slow_op_threshold=arguments.slow_op_threshold,
    )
    service = api.serve(
        table.schema, service_config=api.ServiceConfig(telemetry=telemetry)
    )
    try:
        print(f"serving telemetry at {service.telemetry_url}", flush=True)
        print(
            f"  GET /metrics (Prometheus text)  GET /healthz (JSON); "
            f"load: {records:,} records, k={k}, {arguments.duration:g}s",
            flush=True,
        )
        deadline = time.monotonic() + arguments.duration
        batch = list(table.records)
        chunk = max(1, len(batch) // 20)
        offset = 0
        releases = 0
        while time.monotonic() < deadline:
            if offset < len(batch):
                service.insert_batch(batch[offset : offset + chunk])
                offset += chunk
            service.release(k=k)
            releases += 1
            time.sleep(0.05)
        health = service.health()
        print(
            f"served {releases} release(s) over {offset:,} records; "
            f"health={health['status']} epoch={health['epoch']}"
        )
        slow_op_log = service.slow_op_log
        if slow_op_log is not None:
            print(
                f"  slow ops:   {slow_op_log.recorded} recorded "
                f"in {slow_op_log.path}"
            )
        if profiling:
            _show_profile("serve-demo", arguments.profile_json)
        return 0
    finally:
        service.close()
        obs.disable()


def _top_command(arguments: argparse.Namespace) -> int:
    """``repro top``: a refreshing dashboard over a telemetry endpoint.

    Polls ``--url``'s ``/healthz`` and ``/metrics`` every ``--interval``
    seconds and renders them with
    :func:`~repro.obs.render.render_live` — health verdict, queue and
    cache gauges, and the p50/p90/p99 latency rows.  ``--count`` bounds
    the frames (for scripts); the default runs until interrupted.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.obs.live import parse_prometheus_text
    from repro.obs.render import render_live

    if arguments.url is None:
        print("top requires --url (a serve-demo telemetry endpoint)", file=sys.stderr)
        return 2
    if arguments.interval < 0:
        print("--interval must be at least 0", file=sys.stderr)
        return 2
    base = arguments.url.rstrip("/")
    frames = 0
    try:
        while arguments.count is None or frames < arguments.count:
            try:
                # A stalled service answers /healthz with 503 on purpose;
                # that is a frame to render, not a scrape failure.
                try:
                    response = urllib.request.urlopen(base + "/healthz", timeout=5)
                except urllib.error.HTTPError as error:
                    if error.code != 503:
                        raise
                    response = error
                with response:
                    health = json.load(response)
                with urllib.request.urlopen(base + "/metrics", timeout=5) as response:
                    samples = parse_prometheus_text(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError) as error:
                print(f"cannot scrape {base}: {error}", file=sys.stderr)
                return 1
            if not arguments.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(render_live(health, samples), flush=True)
            frames += 1
            if arguments.count is not None and frames >= arguments.count:
                break
            time.sleep(arguments.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _print_release(result, leaves: int | None = None) -> None:
    """The shared release report: summary, digest (CI greps it), audit."""
    if leaves is not None:
        print(f"  leaves:     {leaves:,}")
    print(f"  release:    {result.table.summary()}")
    print(f"  digest:     {result.digest}")
    verdict = "pass" if result.k_satisfied else "FAIL"
    audit = result.audit
    print(
        f"  audit:      {verdict} "
        f"(k={audit['k_requested']}, base_k={audit['base_k']})"
    )


def _write_release(result, out: str | None) -> None:
    if out is None:
        return
    from repro.dataset.export import write_release_csv

    rows = write_release_csv(result.table, out)
    print(f"  csv:        {rows:,} rows written to {out}")


def _anonymize_command(arguments: argparse.Namespace) -> int:
    """``repro anonymize``: one sharded bulk-anonymization run, audited.

    Generates the chosen dataset (or takes ``--dataset-file``), stages it
    as a binary record file, and runs it through :func:`repro.api.open`
    (durable when ``--dir`` is given): the anonymizer's
    :meth:`~repro.core.anonymizer.RTreeAnonymizer.load` with ``--workers``
    processes, and one audited
    :meth:`~repro.core.anonymizer.RTreeAnonymizer.release`.  The printed
    release digest is a sha256 over the published partitions — runs at
    different worker counts print the *same* digest (the engine's
    determinism guarantee), which is exactly what the CI differential leg
    compares, and what ``repro recover`` must reproduce after a crash.
    """
    import tempfile
    from pathlib import Path

    from repro import api, obs
    from repro.core.anonymizer import DEFAULT_BASE_K
    from repro.dataset.agrawal import make_agrawal_table
    from repro.dataset.census import make_census_table
    from repro.dataset.io import write_table
    from repro.dataset.landsend import make_landsend_table
    from repro.durability import DurabilityConfig

    makers = {
        "landsend": make_landsend_table,
        "census": make_census_table,
        "agrawal": make_agrawal_table,
    }
    records = arguments.records if arguments.records is not None else 10_000
    k = arguments.k if arguments.k is not None else DEFAULT_BASE_K
    seed = arguments.seed if arguments.seed is not None else 1
    workers = arguments.workers
    if workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    maker = makers[arguments.dataset]
    durability = (
        DurabilityConfig(arguments.dir) if arguments.dir is not None else None
    )
    profiling = arguments.profile or arguments.profile_json is not None
    if profiling:
        obs.enable()
    with tempfile.TemporaryDirectory() as staging:
        if arguments.dataset_file is not None:
            path = arguments.dataset_file
            # The schema (domains, dimensionality) still comes from the
            # dataset generator; the file supplies only the points.
            schema_table = maker(1, seed=seed)
        else:
            schema_table = maker(records, seed=seed)
            path = str(Path(staging) / f"{arguments.dataset}.records")
            write_table(schema_table, path)
        with api.open(
            schema_table, base_k=min(DEFAULT_BASE_K, k), durability=durability
        ) as handle:
            consumed = handle.load(path, workers=workers)
            result = handle.release(k=k)
            leaves = handle.leaf_count()
            if durability is not None:
                checkpoint = handle.checkpoint()
    print(
        f"anonymized {consumed:,} {arguments.dataset} records "
        f"with {workers} worker(s) at k={k}"
    )
    _print_release(result, leaves=leaves)
    if durability is not None:
        print(
            f"  durable:    checkpoint at LSN {checkpoint.lsn} "
            f"in {checkpoint.directory}"
        )
    _write_release(result, arguments.out)
    if profiling:
        _show_profile("anonymize", arguments.profile_json)
    return 0 if result.k_satisfied else 1


def _recover_command(arguments: argparse.Namespace) -> int:
    """``repro recover``: rebuild a durable ``--dir`` and publish a release.

    Prints the same ``digest:`` line as ``repro anonymize`` so the two can
    be compared textually: a recovery is correct iff the digest equals the
    one the uninterrupted run printed.
    """
    from repro import api

    if arguments.dir is None:
        print("recover requires --dir (the durability directory)", file=sys.stderr)
        return 2
    evidence = api.recover(arguments.dir)
    with evidence.anonymizer as handle:
        print(f"recovered {len(handle):,} records from {arguments.dir}")
        print(f"  snapshot:   LSN {evidence.snapshot_lsn}")
        print(
            f"  replayed:   {evidence.replayed_ops} op(s) "
            f"({evidence.skipped_ops} skipped, "
            f"{evidence.discarded_ops} discarded)"
        )
        k = arguments.k if arguments.k is not None else handle.base_k
        result = handle.release(k=k)
        _print_release(result, leaves=handle.leaf_count())
        _write_release(result, arguments.out)
    return 0 if result.k_satisfied else 1


def _checkpoint_command(arguments: argparse.Namespace) -> int:
    """``repro checkpoint``: offline snapshot of a durable ``--dir``.

    Recovers the directory (validating it in the process), writes a fresh
    checkpoint, and truncates the WAL — bounding the replay work of the
    *next* recovery.
    """
    from repro import api

    if arguments.dir is None:
        print(
            "checkpoint requires --dir (the durability directory)",
            file=sys.stderr,
        )
        return 2
    with api.recover(arguments.dir).anonymizer as handle:
        checkpoint = handle.checkpoint()
        print(f"checkpoint written at LSN {checkpoint.lsn} in {checkpoint.directory}")
        print(f"  records:    {len(handle):,}")
    return 0


def _stats_command(arguments: argparse.Namespace) -> None:
    """An instrumented end-to-end smoke: metered bulk load + one release.

    This is the observability "hello world": it exercises every hook —
    index splits, buffer flushes, pool traffic, page I/O, release
    generation — on a small Lands End workload and prints the metrics
    table (writing the snapshot with ``--profile-json``).
    """
    from repro import obs
    from repro.core.anonymizer import RTreeAnonymizer
    from repro.dataset.landsend import make_landsend_table
    from repro.dataset.record import Record
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.pagefile import PageFile

    records = arguments.records if arguments.records is not None else 10_000
    k = arguments.k if arguments.k is not None else 10
    seed = arguments.seed if arguments.seed is not None else 1
    table = make_landsend_table(records, seed=seed)
    obs.enable()
    pagefile: PageFile[Record] = PageFile(page_bytes=4_096, record_bytes=36)
    pool: BufferPool[Record] = BufferPool(pagefile, 256 * 1_024)
    anonymizer = RTreeAnonymizer(
        table, base_k=min(5, k), leaf_capacity=2 * min(5, k) - 1, pool=pool
    )
    consumed = anonymizer.bulk_load(table)
    release = anonymizer.anonymize(k)
    pool.flush()
    print(
        f"Instrumented smoke: {consumed:,} records bulk-loaded, "
        f"{len(release.partitions):,} partitions at k={k}\n"
    )
    _show_profile("stats", arguments.profile_json)


def _show_profile(label: str, json_path: str | None) -> None:
    """Print the collected metrics; optionally append the JSONL snapshot."""
    from repro import obs

    print(obs.render_table())
    if json_path:
        with obs.JsonLinesSink(json_path) as sink:
            obs.OBS.emit(sink, label=label)
            print(f"\nmetrics snapshot appended to {sink.path}")
    obs.disable()


def _append_csv(result, path: str, experiment: str) -> None:
    """Append one experiment's rows to a CSV file, tagged by experiment id."""
    import csv
    import os

    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as handle:
        writer = csv.writer(handle)
        if fresh:
            writer.writerow(["experiment", "title", *map(str, result.headers)])
        for row in result.rows:
            writer.writerow([experiment, result.title, *row])


def _applicable(driver: object, overrides: dict[str, int]) -> dict[str, int]:
    """Keep only the overrides the driver's signature accepts."""
    import inspect

    parameters = inspect.signature(driver).parameters  # type: ignore[arg-type]
    return {key: value for key, value in overrides.items() if key in parameters}


if __name__ == "__main__":
    raise SystemExit(main())
