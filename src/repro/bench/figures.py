"""One experiment driver per paper table/figure (§5), plus ablations.

Every driver is a pure function: inputs are workload parameters (scaled
down by default so the whole suite runs on a laptop in minutes — pass
bigger numbers to approach the paper's scale), output is a
:class:`~repro.bench.runner.BenchTable` whose rows mirror the series the
paper plots.  The ``benchmarks/`` pytest suite and the ``repro`` CLI both
call these functions, so "the Figure 10 experiment" always means exactly
this code.

Protocol notes (see EXPERIMENTS.md for the full paper-vs-measured record):

* Figure 7(a) uses the paper's base-k protocol: the R+-tree is bulk-loaded
  once at base k = 5 and each requested k is served by the leaf-scan
  algorithm, so the R+-tree's per-k cost is flat; Mondrian re-runs per k.
* Quality and query experiments (Figures 10-12) build the tree at the
  requested k (leaf occupancy in ``[k, 2k-1]``), the natural reading of
  §5.3/§5.4 and the configuration that matches Mondrian's granularity.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines.mondrian import MondrianAnonymizer
from repro.bench.runner import BenchTable, Timer
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.compaction import compact_table
from repro.core.multigranular import hierarchical_granularities, hierarchical_release
from repro.core.partition import AnonymizedTable, Partition
from repro.dataset.agrawal import AgrawalGenerator
from repro.dataset.landsend import LandsEndGenerator
from repro.dataset.record import Record
from repro.dataset.table import Table
from repro.geometry.box import Box
from repro.index.bulk import hilbert_partitions, str_partitions
from repro.index.split import (
    BiasedSplitPolicy,
    ExhaustiveSplitPolicy,
    MidpointSplitPolicy,
    MinMarginSplitPolicy,
    WeightedSplitPolicy,
)
from repro.metrics.certainty import certainty_penalty
from repro.metrics.discernibility import discernibility_penalty
from repro.metrics.kl import kl_divergence
from repro.privacy.attack import intersection_attack
from repro.query.accuracy import average_error, bucket_by_selectivity, evaluate_workload
from repro.query.ranges import count_original_bulk
from repro.query.workload import random_range_workload, single_attribute_workload
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import PageFile

#: Paper's anonymity sweep for Figures 7(a), 10 and 12(a)/(c).
PAPER_K_SWEEP = (5, 10, 25, 50, 100, 250, 500, 1000)

#: Scaled-down default record counts (the paper used 4.59M / 100M).
DEFAULT_RECORDS = 20_000
DEFAULT_QUERIES = 1_000


def build_rtree(
    table: Table, k: int, pool: BufferPool[Record] | None = None, **kwargs: object
) -> RTreeAnonymizer:
    """The standard quality-experiment configuration: occupancy [k, 2k-1]."""
    anonymizer = RTreeAnonymizer(
        table,
        base_k=k,
        leaf_capacity=max(2 * k - 1, k + 1),
        pool=pool,
        **kwargs,  # type: ignore[arg-type]
    )
    anonymizer.bulk_load(table)
    return anonymizer


# ---------------------------------------------------------------------------
# Figure 7(a): bulk anonymization time, R+-tree vs top-down Mondrian
# ---------------------------------------------------------------------------


def fig7a_bulk_times(
    records: int = DEFAULT_RECORDS,
    ks: Sequence[int] = PAPER_K_SWEEP,
    base_k: int = 5,
    seed: int = 1,
) -> BenchTable:
    """Per-k anonymization cost: flat R+-tree (base-k + leaf scan) vs Mondrian.

    The R+-tree is bulk-loaded once at ``base_k``; each k's release is a
    leaf scan.  Columns report the one-time build, the per-k scan, the
    per-k total under the paper's protocol (build once, scan per k — the
    build amortizes across the sweep), and the per-k Mondrian run.
    """
    table = LandsEndGenerator(seed).generate(records)
    with Timer() as build_timer:
        anonymizer = RTreeAnonymizer(
            table, base_k=base_k, leaf_capacity=2 * base_k - 1
        )
        anonymizer.bulk_load(table)
    build = build_timer.elapsed
    amortized_build = build / len(ks)
    result = BenchTable(
        f"Figure 7(a): bulk anonymization time, {records:,} Lands End records",
        ["k", "rtree build (s)", "rtree scan (s)", "rtree per-k (s)", "mondrian (s)"],
    )
    mondrian = MondrianAnonymizer(table)
    for k in ks:
        with Timer() as scan_timer:
            anonymizer.anonymize(k)
        with Timer() as mondrian_timer:
            mondrian.anonymize(k)
        result.add(
            k,
            build,
            scan_timer.elapsed,
            amortized_build + scan_timer.elapsed,
            mondrian_timer.elapsed,
        )
    return result


def fig7a_parallel(
    records: int = DEFAULT_RECORDS,
    k: int = 5,
    workers: Sequence[int] = (1, 2, 4),
    seed: int = 1,
) -> BenchTable:
    """Figure 7(a) companion: sharded parallel bulk load across worker counts.

    Stages the Lands End table as a binary record file, then bulk-loads it
    through the sharded engine (:mod:`repro.parallel`) at each worker
    count — workers stream their own slices of the file, key and sort
    their shards, and the parent replays the stitched stream.  The first
    row (``workers=1``) is the in-process serial reference; the engine
    guarantees every worker count builds the identical index, so the
    ``digest match`` column must read ``yes`` all the way down — this is
    the serial/parallel differential in bench form, run on every
    ``repro bench`` alongside the wall-clock trail.
    """
    import tempfile
    from pathlib import Path

    from repro.core.partition import release_digest
    from repro.dataset.io import write_table

    table = LandsEndGenerator(seed).generate(records)
    result = BenchTable(
        f"Figure 7(a) companion: sharded parallel bulk load, "
        f"{records:,} Lands End records",
        ["workers", "build (s)", "speedup", "leaves", "digest match"],
    )
    with tempfile.TemporaryDirectory() as staging:
        path = str(Path(staging) / "landsend.records")
        write_table(table, path)
        reference_digest: str | None = None
        reference_seconds = 0.0
        for count in workers:
            with Timer() as timer:
                anonymizer = RTreeAnonymizer(
                    table, base_k=k, leaf_capacity=2 * k - 1
                )
                anonymizer.bulk_load_file(path, workers=count)
            digest = release_digest(anonymizer.anonymize(k))
            if reference_digest is None:
                reference_digest = digest
                reference_seconds = timer.elapsed
            result.add(
                count,
                timer.elapsed,
                reference_seconds / timer.elapsed if timer.elapsed > 0 else 0.0,
                anonymizer.leaf_count(),
                "yes" if digest == reference_digest else "NO",
            )
    return result


def fig7a_kernels(
    records: int = 1_000_000,
    scalar_sample: int = 50_000,
    dimensions: int = 4,
    bits: int = 10,
    batch_size: int = 8_192,
    seed: int = 1,
) -> BenchTable:
    """Figure 7(a) companion: columnar kernels vs the scalar hot paths.

    Measures the three per-record costs the bulk loader pays on every
    ingested record — encode to the on-disk format, decode pages back, and
    Hilbert keying — in both modes: the kernel runs the *whole* workload
    (one million records by default) while the scalar oracle runs a
    ``scalar_sample``-record slice of the same data, so the figure stays
    CI-sized without shrinking the vectorized side.  Speedups compare
    per-record cost, and the ``match`` column cross-checks the two modes'
    outputs on the shared slice — the kernels' bit-identity contract in
    bench form.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro import obs
    from repro.dataset.io import RecordFileReader, RecordFileWriter
    from repro.index.hilbert import hilbert_key, quantize
    from repro.kernels.hilbert import hilbert_keys_for_points

    rng = np.random.default_rng(seed)
    top = (1 << bits) - 1
    points = rng.integers(0, top + 1, size=(records, dimensions)).astype(
        np.float64
    )
    lows = [0.0] * dimensions
    highs = [float(top)] * dimensions
    sample = min(scalar_sample, records)

    result = BenchTable(
        f"Figure 7(a) companion: columnar kernels vs scalar oracles, "
        f"{records:,} records x {dimensions} dims ({bits}-bit grid; scalar "
        f"side runs a {sample:,}-record slice)",
        [
            "stage",
            "kernel records",
            "kernel (s)",
            "scalar records",
            "scalar (s)",
            "speedup",
            "match",
        ],
    )

    def per_record_speedup(
        kernel_seconds: float, scalar_seconds: float
    ) -> float:
        kernel_cost = max(kernel_seconds, 1e-9) / records
        scalar_cost = max(scalar_seconds, 1e-9) / sample
        return scalar_cost / kernel_cost

    with tempfile.TemporaryDirectory() as staging:
        path = Path(staging) / "kernels.records"
        control = Path(staging) / "control.records"
        with Timer() as encode_kernel:
            with RecordFileWriter(path, dimensions) as writer:
                for begin in range(0, records, batch_size):
                    writer.write_batch(points[begin : begin + batch_size])
        with Timer() as encode_scalar:
            with RecordFileWriter(control, dimensions) as writer:
                for row in points[:sample].tolist():
                    writer.write_point(row)
        from repro.dataset.io import _HEADER

        record_bytes = RecordFileReader(path).record_bytes
        # The headers differ (record counts), so compare payload slices.
        begin, end = _HEADER.size, _HEADER.size + sample * record_bytes
        encode_match = (
            path.read_bytes()[begin:end] == control.read_bytes()[begin:end]
        )
        result.add(
            "encode",
            records,
            encode_kernel.elapsed,
            sample,
            encode_scalar.elapsed,
            per_record_speedup(encode_kernel.elapsed, encode_scalar.elapsed),
            "yes" if encode_match else "NO",
        )

        reader = RecordFileReader(path)
        with Timer() as decode_kernel:
            pages: list[np.ndarray] = []
            for _, page in reader.iter_point_batches(batch_size):
                pages.append(page)
        if obs.OBS.enabled:
            obs.OBS.count("kernels.decoded_pages", len(pages))
            obs.OBS.count("kernels.decoded_records", records)
        with Timer() as decode_scalar:
            scalar_rows = list(reader.iter_points(batch_size, count=sample))
        decoded = np.concatenate(pages) if len(pages) > 1 else pages[0]
        decode_match = [
            tuple(row) for row in decoded[:sample].tolist()
        ] == scalar_rows
        result.add(
            "decode",
            records,
            decode_kernel.elapsed,
            sample,
            decode_scalar.elapsed,
            per_record_speedup(decode_kernel.elapsed, decode_scalar.elapsed),
            "yes" if decode_match else "NO",
        )

        with Timer() as key_kernel:
            keys = hilbert_keys_for_points(decoded, lows, highs, bits)
        if obs.OBS.enabled:
            obs.OBS.count("kernels.keyed_records", records)
        with Timer() as key_scalar:
            scalar_keys = [
                hilbert_key(quantize(row, lows, highs, bits), bits)
                for row in scalar_rows
            ]
        result.add(
            "hilbert keying",
            records,
            key_kernel.elapsed,
            sample,
            key_scalar.elapsed,
            per_record_speedup(key_kernel.elapsed, key_scalar.elapsed),
            "yes" if keys[:sample].tolist() == scalar_keys else "NO",
        )

    result.extras = {
        "encode_speedup": per_record_speedup(
            encode_kernel.elapsed, encode_scalar.elapsed
        ),
        "decode_speedup": per_record_speedup(
            decode_kernel.elapsed, decode_scalar.elapsed
        ),
        "keying_speedup": per_record_speedup(
            key_kernel.elapsed, key_scalar.elapsed
        ),
    }
    return result


# ---------------------------------------------------------------------------
# Figure 7(b): incremental anonymization time per batch
# ---------------------------------------------------------------------------


def fig7b_incremental_times(
    batches: int = 9,
    batch_size: int = 5_000,
    k: int = 10,
    seed: int = 1,
) -> BenchTable:
    """Per-batch incremental R+-tree cost vs re-anonymizing with Mondrian.

    Mirrors §5.1: load/anonymize the first batch, then time each further
    batch insert.  The Mondrian column is the cost of the only option a
    non-incremental algorithm has — re-anonymizing everything seen so far.
    """
    generator = LandsEndGenerator(seed)
    result = BenchTable(
        f"Figure 7(b): incremental anonymization, batches of {batch_size:,} (k={k})",
        ["batch", "records total", "rtree batch (s)", "mondrian reanonymize (s)"],
    )
    first = generator.generate(batch_size, stream_offset=0)
    anonymizer = RTreeAnonymizer(first, base_k=k, leaf_capacity=2 * k - 1)
    with Timer() as timer:
        anonymizer.bulk_load(first)
    seen = Table(first.schema, list(first.records))
    with Timer() as mondrian_timer:
        MondrianAnonymizer(seen).anonymize(k)
    result.add(1, len(seen), timer.elapsed, mondrian_timer.elapsed)
    for batch_number in range(2, batches + 1):
        batch = generator.generate(
            batch_size,
            stream_offset=batch_number,
            first_rid=(batch_number - 1) * batch_size,
        )
        with Timer() as timer:
            anonymizer.insert_batch(batch)
        for record in batch:
            seen.append(record)
        with Timer() as mondrian_timer:
            MondrianAnonymizer(seen).anonymize(k)
        result.add(batch_number, len(seen), timer.elapsed, mondrian_timer.elapsed)
    return result


# ---------------------------------------------------------------------------
# Figure 8(a): scaling to large (synthetic) data sets
# ---------------------------------------------------------------------------


def fig8a_scaling(
    sizes: Sequence[int] = (10_000, 20_000, 50_000, 100_000),
    k: int = 10,
    seed: int = 3,
) -> BenchTable:
    """Anonymization wall time vs data set size (Agrawal generator).

    The paper swept 1M..100M records on disk; the shape being reproduced
    is near-linear growth, which the driver reports via the per-record
    column (flat when linear).
    """
    generator = AgrawalGenerator(seed)
    result = BenchTable(
        f"Figure 8(a): buffer-tree anonymization scaling (k={k})",
        ["records", "time (s)", "us/record"],
    )
    for size in sizes:
        table = generator.generate(size)
        with Timer() as timer:
            anonymizer = RTreeAnonymizer(table, base_k=k, leaf_capacity=2 * k - 1)
            anonymizer.bulk_load(table)
            anonymizer.anonymize(k)
        result.add(size, timer.elapsed, timer.elapsed / size * 1e6)
    return result


# ---------------------------------------------------------------------------
# Figure 8(b): explicit I/O count vs memory budget
# ---------------------------------------------------------------------------


def fig8b_io_costs(
    records: int = 50_000,
    memory_budgets: Sequence[int] | None = None,
    k: int = 10,
    seed: int = 3,
    page_bytes: int = 4_096,
) -> BenchTable:
    """Counted page I/Os of the metered bulk load as memory shrinks.

    The claim under test: halving memory raises I/O by *less* than 2x,
    because buffer-tree traffic concentrates on the upper tree levels.
    Budgets default to a 4-step halving sweep sized to the data.
    """
    generator = AgrawalGenerator(seed)
    table = generator.generate(records)
    data_bytes = records * 36
    if memory_budgets is None:
        memory_budgets = [data_bytes // 2, data_bytes // 4, data_bytes // 8, data_bytes // 16]
    result = BenchTable(
        f"Figure 8(b): I/O count vs memory, {records:,} records "
        f"({data_bytes / 1e6:.1f} MB data)",
        ["memory (KB)", "page reads", "page writes", "total I/O"],
    )
    for budget in memory_budgets:
        pagefile: PageFile[Record] = PageFile(page_bytes=page_bytes, record_bytes=36)
        pool: BufferPool[Record] = BufferPool(pagefile, budget)
        anonymizer = RTreeAnonymizer(
            table, base_k=k, leaf_capacity=2 * k - 1, pool=pool
        )
        anonymizer.bulk_load(table)
        pool.flush()
        stats = pagefile.stats
        result.add(budget // 1024, stats.reads, stats.writes, stats.total)
    return result


# ---------------------------------------------------------------------------
# Figure 9: compaction cost as a share of anonymization cost
# ---------------------------------------------------------------------------


def fig9_compaction_cost(
    sample_sizes: Sequence[int] = (5_000, 10_000, 20_000, 30_000, 45_000),
    k: int = 10,
    seed: int = 1,
) -> BenchTable:
    """Compaction time relative to Mondrian anonymization time (§5.3).

    The paper's samples were 0.5M..4.5M Lands End records; the scaled
    shape is the same: compaction stays a small, slowly-varying fraction.
    """
    result = BenchTable(
        f"Figure 9: compaction cost share (k={k})",
        ["records", "anonymize (s)", "compact (s)", "compaction %"],
    )
    generator = LandsEndGenerator(seed)
    biggest = generator.generate(max(sample_sizes))
    for size in sample_sizes:
        sample = biggest.head(size)
        with Timer() as anonymize_timer:
            release = MondrianAnonymizer(sample).anonymize(k)
        with Timer() as compact_timer:
            compact_table(release)
        total = anonymize_timer.elapsed + compact_timer.elapsed
        result.add(
            size,
            anonymize_timer.elapsed,
            compact_timer.elapsed,
            100.0 * compact_timer.elapsed / total,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 10: quality comparisons (discernibility, certainty, KL)
# ---------------------------------------------------------------------------


def fig10_quality(
    records: int = DEFAULT_RECORDS,
    ks: Sequence[int] = (5, 10, 25, 50, 100),
    seed: int = 1,
) -> BenchTable:
    """Quality triple per k for R+-tree / Mondrian / Mondrian-compacted.

    Expected shape: R+-tree best on certainty and KL; Mondrian-compacted
    closes most of the gap; Mondrian-uncompacted far behind on both;
    discernibility identical for the two Mondrian variants (Figure 10(a))
    and comparable for the R+-tree.
    """
    table = LandsEndGenerator(seed).generate(records)
    mondrian = MondrianAnonymizer(table)
    result = BenchTable(
        f"Figure 10: anonymization quality, {records:,} Lands End records",
        [
            "k",
            "algorithm",
            "discernibility",
            "certainty",
            "KL divergence",
            "partitions",
        ],
    )
    for k in ks:
        releases = {
            "rtree": build_rtree(table, k).anonymize(k),
            "mondrian": mondrian.anonymize(k),
        }
        releases["mondrian+compact"] = compact_table(releases["mondrian"])
        for name, release in releases.items():
            result.add(
                k,
                name,
                discernibility_penalty(release),
                certainty_penalty(release, table),
                kl_divergence(release, table),
                len(release.partitions),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 11: incremental quality
# ---------------------------------------------------------------------------


def fig11_incremental_quality(
    batches: int = 6,
    batch_size: int = 5_000,
    k: int = 10,
    seed: int = 1,
) -> BenchTable:
    """Quality after each incremental batch vs full Mondrian re-anonymization.

    The claim: incrementally maintained R+-tree anonymizations do not decay
    — they stay at least as good as re-anonymizing from scratch.
    """
    generator = LandsEndGenerator(seed)
    result = BenchTable(
        f"Figure 11: incremental quality, batches of {batch_size:,} (k={k})",
        [
            "batch",
            "records",
            "algorithm",
            "discernibility",
            "certainty",
            "KL divergence",
        ],
    )
    first = generator.generate(batch_size, stream_offset=0)
    anonymizer = RTreeAnonymizer(first, base_k=k, leaf_capacity=2 * k - 1)
    anonymizer.bulk_load(first)
    seen = Table(first.schema, list(first.records))
    for batch_number in range(1, batches + 1):
        if batch_number > 1:
            batch = generator.generate(
                batch_size,
                stream_offset=batch_number,
                first_rid=(batch_number - 1) * batch_size,
            )
            anonymizer.insert_batch(batch)
            for record in batch:
                seen.append(record)
        incremental = anonymizer.anonymize(k)
        reanonymized = MondrianAnonymizer(seen).anonymize(k)
        for name, release in (
            ("rtree incremental", incremental),
            ("mondrian reanonymized", compact_table(reanonymized)),
        ):
            result.add(
                batch_number,
                len(seen),
                name,
                discernibility_penalty(release),
                certainty_penalty(release, seen),
                kl_divergence(release, seen),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 12(a)/(b): query error vs k and vs selectivity
# ---------------------------------------------------------------------------


def fig12a_query_error(
    records: int = DEFAULT_RECORDS,
    ks: Sequence[int] = (5, 10, 25, 50, 100),
    queries: int = DEFAULT_QUERIES,
    seed: int = 1,
) -> BenchTable:
    """Average COUNT-query error per k for the three §5.4 contenders."""
    table = LandsEndGenerator(seed).generate(records)
    workload = random_range_workload(table, queries, seed=seed + 100)
    original_counts = count_original_bulk(workload, table).tolist()
    mondrian = MondrianAnonymizer(table)
    result = BenchTable(
        f"Figure 12(a): avg query error, {queries} random range queries",
        ["k", "rtree", "mondrian compacted", "mondrian uncompacted"],
    )
    for k in ks:
        rtree_release = build_rtree(table, k).anonymize(k)
        mondrian_release = mondrian.anonymize(k)
        compacted = compact_table(mondrian_release)
        errors = [
            average_error(
                evaluate_workload(workload, release, table, original_counts)
            )
            for release in (rtree_release, compacted, mondrian_release)
        ]
        result.add(k, *errors)
    return result


def fig12b_selectivity(
    records: int = DEFAULT_RECORDS,
    k: int = 10,
    queries: int = DEFAULT_QUERIES,
    seed: int = 1,
) -> BenchTable:
    """Average error per selectivity band (errors shrink as queries widen)."""
    table = LandsEndGenerator(seed).generate(records)
    workload = random_range_workload(table, queries, seed=seed + 100)
    original_counts = count_original_bulk(workload, table).tolist()
    mondrian_release = MondrianAnonymizer(table).anonymize(k)
    contenders = {
        "rtree": build_rtree(table, k).anonymize(k),
        "mondrian compacted": compact_table(mondrian_release),
        "mondrian uncompacted": mondrian_release,
    }
    result = BenchTable(
        f"Figure 12(b): query error vs selectivity (k={k})",
        ["selectivity band", "queries", "rtree", "mond compact", "mond uncompact"],
    )
    buckets = {}
    for name, release in contenders.items():
        outcomes = evaluate_workload(workload, release, table, original_counts)
        buckets[name] = bucket_by_selectivity(outcomes, len(table))
    for index, (band, count, _error) in enumerate(buckets["rtree"]):
        result.add(
            band,
            count,
            buckets["rtree"][index][2],
            buckets["mondrian compacted"][index][2],
            buckets["mondrian uncompacted"][index][2],
        )
    return result


# ---------------------------------------------------------------------------
# Figure 12(c)/(d): workload-biased splitting
# ---------------------------------------------------------------------------


def fig12c_biased(
    records: int = DEFAULT_RECORDS,
    ks: Sequence[int] = (5, 10, 25, 50, 100),
    queries: int = DEFAULT_QUERIES,
    seed: int = 1,
    attribute: str = "zipcode",
) -> BenchTable:
    """Zipcode-only workload: biased vs unbiased R+-tree, error per k."""
    table = LandsEndGenerator(seed).generate(records)
    workload = single_attribute_workload(table, attribute, queries, seed=seed + 200)
    original_counts = count_original_bulk(workload, table).tolist()
    dimension = table.schema.index_of(attribute)
    result = BenchTable(
        f"Figure 12(c): {attribute}-biased splitting, error per k",
        ["k", "unbiased rtree", "biased rtree"],
    )
    for k in ks:
        unbiased = build_rtree(table, k).anonymize(k)
        biased = build_rtree(
            table, k, split_policy=BiasedSplitPolicy([dimension])
        ).anonymize(k)
        result.add(
            k,
            average_error(evaluate_workload(workload, unbiased, table, original_counts)),
            average_error(evaluate_workload(workload, biased, table, original_counts)),
        )
    return result


def fig12d_biased_selectivity(
    records: int = DEFAULT_RECORDS,
    k: int = 10,
    queries: int = DEFAULT_QUERIES,
    seed: int = 1,
    attribute: str = "zipcode",
) -> BenchTable:
    """Biased vs unbiased error per selectivity band (differences shrink)."""
    table = LandsEndGenerator(seed).generate(records)
    workload = single_attribute_workload(table, attribute, queries, seed=seed + 200)
    original_counts = count_original_bulk(workload, table).tolist()
    dimension = table.schema.index_of(attribute)
    unbiased = build_rtree(table, k).anonymize(k)
    biased = build_rtree(
        table, k, split_policy=BiasedSplitPolicy([dimension])
    ).anonymize(k)
    unbiased_buckets = bucket_by_selectivity(
        evaluate_workload(workload, unbiased, table, original_counts), len(table)
    )
    biased_buckets = bucket_by_selectivity(
        evaluate_workload(workload, biased, table, original_counts), len(table)
    )
    result = BenchTable(
        f"Figure 12(d): biased splitting, error vs selectivity (k={k})",
        ["selectivity band", "queries", "unbiased", "biased"],
    )
    for index, (band, count, error) in enumerate(unbiased_buckets):
        result.add(band, count, error, biased_buckets[index][2])
    return result


# ---------------------------------------------------------------------------
# Ablations and extensions
# ---------------------------------------------------------------------------


def ablation_bulkload(
    records: int = DEFAULT_RECORDS, k: int = 10, seed: int = 3
) -> BenchTable:
    """Buffer-tree vs sort-based loading (§2.1's discarded alternatives).

    Compares load time and the certainty penalty of the resulting
    partitionings on the 9-attribute Agrawal data, where the paper found
    sorting-based loading weaker ("non-sorting bulk-loading techniques...
    worked better for higher dimensional data sets").
    """
    table = AgrawalGenerator(seed).generate(records)
    lows, highs = table.schema.domain_lows(), table.schema.domain_highs()
    result = BenchTable(
        f"Ablation: bulk-loading strategies, {records:,} Agrawal records (k={k})",
        ["loader", "time (s)", "certainty", "partitions"],
    )

    def to_release(groups: list[list[Record]]) -> AnonymizedTable:
        return AnonymizedTable(
            table.schema,
            [
                Partition(tuple(group), Box.from_points(r.point for r in group))
                for group in groups
            ],
        )

    with Timer() as timer:
        release = build_rtree(table, k).anonymize(k)
    result.add("buffer-tree", timer.elapsed, certainty_penalty(release, table), len(release.partitions))
    with Timer() as timer:
        release = to_release(hilbert_partitions(table.records, lows, highs, k))
    result.add("hilbert sort", timer.elapsed, certainty_penalty(release, table), len(release.partitions))
    with Timer() as timer:
        release = to_release(str_partitions(table.records, table.schema.dimensions, k))
    result.add("STR", timer.elapsed, certainty_penalty(release, table), len(release.partitions))
    return result


def ablation_split(
    records: int = DEFAULT_RECORDS, k: int = 10, seed: int = 1
) -> BenchTable:
    """Split-policy ablation: quality/time of the §2.4 design choices."""
    table = LandsEndGenerator(seed).generate(records)
    workload = random_range_workload(table, 300, seed=seed + 300)
    original_counts = count_original_bulk(workload, table).tolist()
    dimensions = table.schema.dimensions
    policies: dict[str, object] = {
        "min-margin (top-3 axes)": MinMarginSplitPolicy(),
        "min-margin (all axes)": MinMarginSplitPolicy(max_dimensions=None),
        "exhaustive": ExhaustiveSplitPolicy(),
        "midpoint (Mondrian-like)": MidpointSplitPolicy(),
        "weighted (zipcode x4)": WeightedSplitPolicy(
            [4.0] + [1.0] * (dimensions - 1)
        ),
    }
    result = BenchTable(
        f"Ablation: split policies (k={k})",
        ["policy", "build (s)", "certainty", "avg query error"],
    )
    for name, policy in policies.items():
        with Timer() as timer:
            release = build_rtree(table, k, split_policy=policy).anonymize(k)  # type: ignore[arg-type]
        result.add(
            name,
            timer.elapsed,
            certainty_penalty(release, table),
            average_error(
                evaluate_workload(workload, release, table, original_counts)
            ),
        )
    return result


def ablation_loading(
    records: int = DEFAULT_RECORDS, k: int = 10, seed: int = 3
) -> BenchTable:
    """Tuple loading vs buffer-tree loading (§2.1's explicit contrast).

    "The buffer-tree amortizes the cost of inserting a set of records by
    deferring operations on the tree.  This contrasts the tuple-loading
    approach that inserts records one by one."  Measured on wall time and,
    with the metered storage attached, on counted page I/Os under a small
    memory budget — where the amortization shows up most clearly.
    """
    from repro.index.buffer_tree import BufferTreeLoader
    from repro.index.leaf_store import PagedLeafStore
    from repro.index.rtree import RPlusTree

    table = AgrawalGenerator(seed).generate(records)
    extents = [a.domain_extent for a in table.schema.quasi_identifiers]
    result = BenchTable(
        f"Ablation: tuple loading vs buffer-tree loading (k={k})",
        ["loader", "time (s)", "page I/Os (256KB pool)"],
    )

    def metered_run(use_buffer: bool) -> tuple[float, int]:
        pagefile: PageFile[Record] = PageFile(page_bytes=4_096, record_bytes=36)
        pool: BufferPool[Record] = BufferPool(pagefile, 256 * 1_024)
        tree = RPlusTree(
            dimensions=table.schema.dimensions,
            k=k,
            leaf_capacity=2 * k - 1,
            domain_extents=extents,
            leaf_store=PagedLeafStore(pool),
        )
        with Timer() as timer:
            if use_buffer:
                BufferTreeLoader(tree, pool=pool).load(table.records)
            else:
                tree.insert_all(table.records)
        pool.flush()
        return timer.elapsed, pagefile.stats.total

    tuple_time, tuple_io = metered_run(use_buffer=False)
    buffer_time, buffer_io = metered_run(use_buffer=True)
    result.add("tuple loading (one by one)", tuple_time, tuple_io)
    result.add("buffer-tree loading", buffer_time, buffer_io)
    return result


def ablation_estimator(
    records: int = DEFAULT_RECORDS,
    k: int = 10,
    queries: int = 500,
    seed: int = 1,
) -> BenchTable:
    """Whole-partition COUNT vs the §2.3 uniform-density estimator.

    The paper notes answers "must be computed based on the set of all
    [intersecting] partitions", but that one "may choose to take the data
    distribution into consideration" and scale each partition by the
    overlapped volume fraction.  This ablation quantifies that choice on
    both absolute error (estimates can under- *or* over-count) per
    selectivity band.
    """
    from repro.query.ranges import estimate_anonymized

    table = LandsEndGenerator(seed).generate(records)
    workload = random_range_workload(table, queries, seed=seed + 500)
    original_counts = count_original_bulk(workload, table).tolist()
    release = build_rtree(table, k).anonymize(k)
    outcomes = evaluate_workload(workload, release, table, original_counts)
    estimate_errors = []
    for query, original in zip(workload, original_counts):
        estimate = estimate_anonymized(query, release)
        estimate_errors.append(abs(estimate - original) / original)
    count_errors = [abs(outcome.error) for outcome in outcomes]
    result = BenchTable(
        f"Ablation: COUNT semantics vs uniform estimator (k={k})",
        ["selectivity band", "queries", "whole-partition |err|", "uniform estimate |err|"],
    )
    edges = (0.001, 0.01, 0.05, 0.1, 0.25, 1.0)
    previous = 0.0
    for edge in edges:
        band = [
            index
            for index, original in enumerate(original_counts)
            if previous < original / len(table) <= edge
        ]
        if band:
            result.add(
                f"({previous:g}, {edge:g}]",
                len(band),
                sum(count_errors[i] for i in band) / len(band),
                sum(estimate_errors[i] for i in band) / len(band),
            )
        else:
            result.add(f"({previous:g}, {edge:g}]", 0, float("nan"), float("nan"))
        previous = edge
    return result


def ablation_weighted_certainty(
    records: int = DEFAULT_RECORDS,
    k: int = 10,
    seed: int = 1,
    weight: float = 4.0,
) -> BenchTable:
    """Weighted splits optimize the weighted certainty penalty (§2.4).

    Xu et al.'s weighted NCP says some attributes matter more; §2.4 argues
    the index should then prefer splitting them.  This ablation builds an
    unweighted and a zipcode-weighted tree and scores both under the
    *weighted* metric — the weighted tree must win there, and concede a
    little on the unweighted metric.
    """
    table = LandsEndGenerator(seed).generate(records)
    dimensions = table.schema.dimensions
    zip_dimension = table.schema.index_of("zipcode")
    weights = [weight if d == zip_dimension else 1.0 for d in range(dimensions)]
    plain = build_rtree(table, k).anonymize(k)
    weighted = build_rtree(
        table, k, split_policy=WeightedSplitPolicy(weights)
    ).anonymize(k)
    result = BenchTable(
        f"Ablation: weighted splitting vs weighted certainty (zipcode x{weight:g}, k={k})",
        ["tree", "weighted certainty", "unweighted certainty"],
    )
    for name, release in (("unweighted splits", plain), ("weighted splits", weighted)):
        result.add(
            name,
            certainty_penalty(release, table, weights=weights),
            certainty_penalty(release, table),
        )
    return result


def ablation_gridfile(
    records: int = 10_000, k: int = 10, seed: int = 1
) -> BenchTable:
    """Compaction retrofitted to a grid file (§4's MBR-free index example).

    Three-attribute Lands End projection (grid directories explode in high
    dimensions — itself part of the story): grid regions vs compacted grid
    vs the R+-tree's native MBRs, on certainty and query error.
    """
    from repro.baselines.grid import GridFileAnonymizer
    from repro.core.compaction import compact_table
    from repro.dataset.landsend import LandsEndGenerator
    from repro.dataset.schema import Attribute, Schema

    full = LandsEndGenerator(seed).generate(records)
    schema = Schema(
        (
            Attribute.numeric("zipcode", 501, 99_950),
            Attribute.numeric("price", 1, 500),
            Attribute.numeric("cost", 1, 6_000),
        )
    )
    table = Table.from_points(
        schema, [(r.point[0], r.point[4], r.point[6]) for r in full]
    )
    workload = random_range_workload(table, 300, seed=seed + 400)
    original_counts = count_original_bulk(workload, table).tolist()
    releases = {
        "grid file (regions)": GridFileAnonymizer(table).anonymize(k),
    }
    releases["grid file + compaction"] = compact_table(releases["grid file (regions)"])
    releases["rtree (native MBRs)"] = build_rtree(table, k).anonymize(k)
    result = BenchTable(
        f"Ablation: compaction retrofit on a grid file (k={k})",
        ["release", "certainty", "avg query error", "partitions"],
    )
    for name, release in releases.items():
        result.add(
            name,
            certainty_penalty(release, table),
            average_error(
                evaluate_workload(workload, release, table, original_counts)
            ),
            len(release.partitions),
        )
    return result


def ablation_index_families(
    records: int = 10_000, k: int = 10, seed: int = 1
) -> BenchTable:
    """R+-tree vs quadtree vs grid file as anonymization substrates (§6).

    The paper's closing remark — the index you would pick for querying is
    the index you would pick for anonymizing — invites this comparison on
    a clustered 3-attribute Lands End projection: data-aware R+-tree
    splits vs data-oblivious quadtree midpoints vs grid-file scales, on
    build+release time, certainty and query error.  (All three releases
    publish MBR-compacted boxes so the comparison isolates partitioning
    quality; 3 attributes because grid directories and 2^d quadtree fanout
    both explode with dimensionality.)
    """
    from repro.baselines.grid import GridFileAnonymizer
    from repro.core.compaction import compact_table
    from repro.dataset.landsend import LandsEndGenerator
    from repro.dataset.schema import Attribute, Schema
    from repro.index.quadtree import QuadTreeAnonymizer

    full = LandsEndGenerator(seed).generate(records)
    schema = Schema(
        (
            Attribute.numeric("zipcode", 501, 99_950),
            Attribute.numeric("price", 1, 500),
            Attribute.numeric("cost", 1, 6_000),
        )
    )
    table = Table.from_points(
        schema, [(r.point[0], r.point[4], r.point[6]) for r in full]
    )
    workload = random_range_workload(table, 300, seed=seed + 600)
    original_counts = count_original_bulk(workload, table).tolist()
    result = BenchTable(
        f"Ablation: index families as anonymizers (k={k})",
        ["substrate", "time (s)", "certainty", "avg query error", "partitions"],
    )

    def contender(name: str, build) -> None:  # noqa: ANN001
        with Timer() as timer:
            release = build()
        result.add(
            name,
            timer.elapsed,
            certainty_penalty(release, table),
            average_error(
                evaluate_workload(workload, release, table, original_counts)
            ),
            len(release.partitions),
        )

    contender("rtree", lambda: build_rtree(table, k).anonymize(k))
    contender(
        "quadtree (midpoints)", lambda: QuadTreeAnonymizer(table).anonymize(k)
    )
    contender(
        "grid file (compacted)",
        lambda: compact_table(GridFileAnonymizer(table).anonymize(k)),
    )
    return result


def multigranular_report(
    records: int = DEFAULT_RECORDS,
    base_k: int = 5,
    granularities: Sequence[int] = (5, 10, 25, 50),
    seed: int = 1,
) -> BenchTable:
    """Multi-granular releases: runtimes, quality and the intersection attack.

    Demonstrates §3: leaf-scan releases at several granularities from one
    base-k index, the per-release generation cost (flat in k), and the
    attack simulation confirming every record stays ≥ base-k anonymous
    against an adversary holding all the releases at once.
    """
    table = LandsEndGenerator(seed).generate(records)
    anonymizer = RTreeAnonymizer(table, base_k=base_k, leaf_capacity=2 * base_k - 1)
    anonymizer.bulk_load(table)
    result = BenchTable(
        f"Multi-granular releases from one base-{base_k} index",
        ["granularity k1", "scan (s)", "partitions", "certainty"],
    )
    releases = []
    for k1 in granularities:
        with Timer() as timer:
            release = anonymizer.anonymize(k1)
        releases.append(release)
        result.add(
            k1, timer.elapsed, len(release.partitions), certainty_penalty(release, table)
        )
    report = intersection_attack(releases)
    result.add(
        "attack: min candidates",
        float(report.min_candidates),
        report.records,
        report.mean_candidates,
    )
    hierarchy = hierarchical_granularities(anonymizer.tree)
    for level, guaranteed in hierarchy[:4]:
        release = hierarchical_release(anonymizer.tree, level, table.schema)
        result.add(
            f"hierarchical level {level}",
            float(guaranteed),
            len(release.partitions),
            certainty_penalty(release, table),
        )
    return result


def recovery_bench(
    records: int = 10_000,
    tail_ops: Sequence[int] = (0, 500, 2_000),
    k: int = 10,
    seed: int = 1,
) -> BenchTable:
    """Crash-recovery cost vs WAL tail length (durability subsystem).

    For each tail length: bulk-load a durable anonymizer, checkpoint,
    apply that many incremental inserts (the un-checkpointed tail), then
    time a cold :func:`repro.durability.recover` of the directory.
    Recovery must replay exactly the tail — the ``replayed`` column — and
    the recovered release's digest must match the pre-crash digest
    (``digest match`` reads ``yes`` all the way down).  Recovery time
    therefore grows with the tail, not the dataset: checkpoints bound the
    replay work, the durability analogue of Figure 7(b)'s amortization
    argument.
    """
    import tempfile
    from pathlib import Path

    from repro.core.partition import release_digest
    from repro.durability import DurabilityConfig, recover

    base_k = min(5, k)
    table = LandsEndGenerator(seed).generate(records + max(tail_ops))
    base = Table(table.schema, tuple(table.records[:records]))
    extra = table.records[records:]
    result = BenchTable(
        f"Recovery: snapshot restore + WAL replay, "
        f"{records:,} Lands End records",
        ["wal tail (ops)", "recover (s)", "replayed", "snapshot lsn", "digest match"],
    )
    for tail in tail_ops:
        with tempfile.TemporaryDirectory() as staging:
            directory = Path(staging) / "state"
            anonymizer = RTreeAnonymizer(
                table, base_k=base_k, durability=DurabilityConfig(directory)
            )
            anonymizer.bulk_load(base)
            anonymizer.checkpoint()
            for record in extra[:tail]:
                anonymizer.insert(record)
            digest = release_digest(anonymizer.anonymize(k))
            anonymizer.close()
            with Timer() as timer:
                outcome = recover(directory)
            recovered = release_digest(outcome.anonymizer.anonymize(k))
            outcome.anonymizer.close()
            result.add(
                tail,
                timer.elapsed,
                outcome.replayed_ops,
                outcome.snapshot_lsn,
                "yes" if recovered == digest else "NO",
            )
    return result


def serve_bench(
    records: int = 10_000,
    write_rounds: int = 10,
    write_batch: int = 200,
    reads_per_round: int = 20,
    ks: Sequence[int] = (10, 25, 50),
    base_k: int = 5,
    seed: int = 1,
    repeats: int = 3,
) -> BenchTable:
    """Mixed read/write serving throughput, cached vs uncached (repro.serve).

    Drives one :class:`~repro.serve.AnonymizerService` through alternating
    rounds of queued writes and release reads: each round submits one
    ``write_batch``-record group through the write queue, waits for the
    group commit (``barrier``), then serves ``reads_per_round`` releases
    cycling over ``ks``.  With the cache on, only the first read per k per
    round recomputes (the epoch bump invalidated the previous round's
    snapshots) and the rest are cache hits; with it off every read pays
    the full leaf-scan under the write lock.  The spread between the two
    ``reads/s`` rows is the serving layer's contribution.

    Single-threaded by design: each round's group is submitted alone and
    barriered, so the coalescing, epoch and cache counters are
    deterministic and can sit in the bench-regression trail.

    The third row repeats the cached run with the live telemetry endpoint
    up: the timed window pays every per-operation telemetry cost (the
    endpoint thread, watchdog heartbeats, queue/backpressure gauges, the
    extra latency histograms), and the ``/metrics`` scrape path is then
    exercised once per round *outside* the timer — a real scraper fires
    every few seconds, so folding even one scrape into a
    milliseconds-long bench window would model a scrape rate of hundreds
    per second, which no deployment has.  The ``telemetry_overhead``
    extra is the fractional reads/s lost versus the unobserved cached
    run; the committed trail asserts it stays affordable.

    Every variant runs ``repeats`` times (a fresh engine and service per
    repeat), and each write/read round is timed individually; a
    variant's reported wall clock is the **sum of per-round minima**
    across its repeats.  Whole-window best-of cannot resolve a
    few-percent delta on windows this short — one scheduler stall or
    cgroup throttle episode (tens of ms, i.e. a double-digit percentage
    of the window) poisons an entire repeat, and with a handful of
    repeats some variant usually eats one in every repeat.  Per-round
    minima reject those additive stalls at round granularity: each round
    only needs *one* clean sample among the repeats.  The repeats are
    also **interleaved and rotated** (one repeat of every variant per
    pass, starting position shifting each pass) so machine-level drift
    lands on all variants instead of biasing a block.  The obs counters
    simply accumulate ``repeats`` identical runs, so they stay
    deterministic in the trail.
    """
    import urllib.request

    from repro import obs
    from repro.obs.live import TelemetryConfig
    from repro.serve import AnonymizerService, ServiceConfig

    # The latency-quantile extras need the registry; collect locally when
    # the caller (CLI without --profile) has not already enabled it.
    owns_obs = not obs.OBS.enabled
    if owns_obs:
        obs.enable()

    table = LandsEndGenerator(seed).generate(
        records + write_rounds * write_batch
    )
    base = Table(table.schema, tuple(table.records[:records]))
    extra = table.records[records:]
    result = BenchTable(
        f"Serving under write load: {records:,} base records, "
        f"{write_rounds} rounds of {write_batch} queued inserts",
        [
            "cache",
            "reads",
            "writes",
            "reads/s",
            "writes/s",
            "cache hits",
            "cache misses",
        ],
    )
    reads_per_second: dict[str, float] = {}
    variants = (
        ("on", True, None),
        ("off", False, None),
        ("on+telemetry", True, TelemetryConfig(endpoint=True)),
    )
    round_minima = {
        label: [float("inf")] * write_rounds for label, _, _ in variants
    }
    observed: dict[str, tuple[int, int, int, int]] = {}
    uncached, paired = variants[1], (variants[0], variants[2])
    for pass_index in range(max(1, repeats)):
        # Each pass runs the heavy uncached variant first (it absorbs
        # any cross-pass allocator/GC churn), then the cached pair whose
        # delta is the telemetry overhead — back to back, swapping their
        # internal order every pass so neither always enjoys the warmer
        # position.
        pair = paired if pass_index % 2 == 0 else paired[::-1]
        for label, cached, telemetry in (uncached, *pair):
            engine = RTreeAnonymizer(table, base_k=base_k)
            with AnonymizerService(
                engine, ServiceConfig(cache_releases=cached, telemetry=telemetry)
            ) as service:
                service.load(base)
                reads = writes = 0
                minima = round_minima[label]
                for round_index in range(write_rounds):
                    start = round_index * write_batch
                    with Timer() as timer:
                        service.submit_insert_batch(
                            extra[start : start + write_batch]
                        )
                        service.barrier()
                        writes += write_batch
                        for read_index in range(reads_per_round):
                            service.release(ks[read_index % len(ks)])
                            reads += 1
                    minima[round_index] = min(
                        minima[round_index], timer.elapsed
                    )
                if telemetry is not None:
                    for _ in range(write_rounds):  # deterministic scrape count
                        with urllib.request.urlopen(
                            service.telemetry_url + "/metrics", timeout=5
                        ) as response:
                            response.read()
                stats = service.cache.stats
                observed[label] = (reads, writes, stats.hits, stats.misses)
    for label, _, _ in variants:
        reads, writes, hits, misses = observed[label]
        best_elapsed = sum(round_minima[label])
        reads_per_second[label] = reads / best_elapsed
        result.add(
            label,
            reads,
            writes,
            reads / best_elapsed,
            writes / best_elapsed,
            hits,
            misses,
        )
    result.extras = {
        "telemetry_off_reads_per_s": reads_per_second["on"],
        "telemetry_on_reads_per_s": reads_per_second["on+telemetry"],
        "telemetry_overhead": 1.0
        - reads_per_second["on+telemetry"] / reads_per_second["on"],
    }
    # The serving latency sketches, in seconds (wal.fsync stays 0 here:
    # the bench service runs without a durability directory).
    for metric, short in (
        ("serve.queue_wait_seconds", "queue_wait"),
        ("serve.commit_seconds", "commit"),
        ("serve.release_seconds", "release"),
        ("wal.fsync_seconds", "wal_fsync"),
    ):
        for quantile in (0.5, 0.9, 0.99):
            result.extras[f"{short}_p{int(quantile * 100)}"] = obs.OBS.percentile(
                metric, quantile
            )
    if owns_obs:
        obs.disable()
        obs.reset()
    return result


def serve_cluster_bench(
    records: int = 8_000,
    write_rounds: int = 8,
    write_batch: int = 400,
    reads_per_round: int = 4,
    k: int = 25,
    base_k: int = 5,
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 1,
    repeats: int = 3,
) -> BenchTable:
    """Write-throughput scaling of the sharded serving cluster (repro.cluster).

    Drives the *same* mixed workload — ``write_rounds`` rounds of one
    routed ``write_batch`` insert group, a barrier, then
    ``reads_per_round`` ``"hilbert"``-strategy releases — against a
    shards=1 single-writer :class:`~repro.serve.AnonymizerService` and a
    :class:`~repro.cluster.ShardedCluster` at each entry of
    ``shard_counts`` beyond 1.  The single-writer applies every group on
    one thread; the cluster fans the batch out to one worker process per
    contiguous Hilbert-key range, so its group commits proceed in
    parallel.  Every variant's final release digest is cross-checked
    against the single-writer's (the ``digest`` column) — the scaling
    must not cost bit-identity.

    Timing protocol matches :func:`serve_bench`: per-round minima summed
    across interleaved repeats.  ``speedup_<n>`` extras report each
    cluster width's write throughput relative to shards=1, and
    ``cpu_count`` records how many cores the host actually had — on a
    single-core box the workers time-slice one CPU and the speedup
    ceiling is 1.0 regardless of shard count.
    """
    import os

    from repro import obs
    from repro.cluster import ClusterConfig, ShardedCluster
    from repro.serve import AnonymizerService, ServiceConfig

    owns_obs = not obs.OBS.enabled
    if owns_obs:
        obs.enable()

    table = LandsEndGenerator(seed).generate(
        records + write_rounds * write_batch
    )
    base = Table(table.schema, tuple(table.records[:records]))
    extra = table.records[records:]
    result = BenchTable(
        f"Sharded serving cluster: {records:,} base records, "
        f"{write_rounds} rounds of {write_batch} routed inserts, "
        f"k={k} releases",
        ["shards", "writes", "reads", "writes/s", "reads/s", "digest"],
    )
    round_minima = {
        shards: [float("inf")] * write_rounds for shards in shard_counts
    }
    digests: dict[int, str] = {}
    counts: dict[int, tuple[int, int]] = {}
    for pass_index in range(max(1, repeats)):
        # Rotate the starting variant so machine drift lands evenly.
        order = list(shard_counts)
        rotation = pass_index % len(order)
        order = order[rotation:] + order[:rotation]
        for shards in order:
            if shards == 1:
                service = AnonymizerService(
                    RTreeAnonymizer(table, base_k=base_k), ServiceConfig()
                )
            else:
                service = ShardedCluster(
                    base, ClusterConfig(shards=shards), base_k=base_k
                )
            try:
                service.load(base)
                reads = writes = 0
                minima = round_minima[shards]
                for round_index in range(write_rounds):
                    start = round_index * write_batch
                    with Timer() as timer:
                        service.submit_insert_batch(
                            extra[start : start + write_batch]
                        )
                        service.barrier()
                        writes += write_batch
                        for _ in range(reads_per_round):
                            service.release(k, strategy="hilbert")
                            reads += 1
                    minima[round_index] = min(
                        minima[round_index], timer.elapsed
                    )
                digests[shards] = service.release(
                    k, strategy="hilbert"
                ).digest
                counts[shards] = (writes, reads)
            finally:
                service.close()
    reference = digests[shard_counts[0]]
    writes_per_second: dict[int, float] = {}
    for shards in shard_counts:
        writes, reads = counts[shards]
        best_elapsed = sum(round_minima[shards])
        writes_per_second[shards] = writes / best_elapsed
        result.add(
            shards,
            writes,
            reads,
            writes / best_elapsed,
            reads / best_elapsed,
            "match" if digests[shards] == reference else "MISMATCH",
        )
    result.extras = {
        "cpu_count": float(os.cpu_count() or 1),
        "digests_match": float(
            all(digest == reference for digest in digests.values())
        ),
    }
    for shards in shard_counts[1:]:
        result.extras[f"speedup_{shards}"] = (
            writes_per_second[shards] / writes_per_second[shard_counts[0]]
        )
    if owns_obs:
        obs.disable()
        obs.reset()
    return result


def query_bench(
    records: int = 10_000,
    queries: int = 400,
    ks: Sequence[int] = (10, 25, 50),
    base_k: int = 5,
    reader_counts: Sequence[int] = (4, 8, 16),
    write_batch: int = 200,
    reader_batch: int = 20,
    seed: int = 1,
) -> BenchTable:
    """Serving-side query throughput and accuracy-vs-k (repro.query.engine).

    Two phases against one :class:`~repro.serve.AnonymizerService`:

    **Phase A (deterministic, metered).**  Single-threaded: for each k,
    answer the whole random-range workload through ``service.query`` (a
    columnar scan of the release), cross-check every count against the
    scalar oracle :func:`~repro.query.ranges.count_anonymized` (the
    ``oracle`` column must read ``match``), and report the §5.4 accuracy
    (average normalized error falls as k falls) alongside ``scanned``,
    the partition comparisons the scan made (partitions x queries).
    Everything in this phase is a pure function of the seed, so the
    ``query.*`` counters sit in the bench-regression trail.

    **Phase B (throughput, unmetered).**  For each entry of
    ``reader_counts``, that many reader threads split the workload and
    answer it in ``reader_batch``-query calls at the largest k while one
    writer thread continuously feeds ``write_batch``-record insert groups
    through the write queue.  Each write bumps the epoch, so readers pay
    realistic snapshot recomputes and engine rebuilds mid-flight; the
    ``queries/s`` column is end-to-end wall clock.  The phase runs with
    the metrics registry *disabled*: its counter values depend on
    scheduler interleaving (how many rebuilds each reader happens to
    trigger), which would poison the deterministic trail — the same
    reasoning that keeps :func:`serve_bench`'s scrapes outside its timed
    window.
    """
    import itertools
    import threading

    from repro import obs
    from repro.query.ranges import count_anonymized
    from repro.serve import AnonymizerService, ServiceConfig

    # Counter columns need the registry; collect locally when the caller
    # (CLI without --profile) has not already enabled it.
    owns_obs = not obs.OBS.enabled
    if owns_obs:
        obs.enable()

    table = LandsEndGenerator(seed).generate(records + 8 * write_batch)
    base = Table(table.schema, tuple(table.records[:records]))
    feed = table.records[records:]
    workload = random_range_workload(base, queries, seed=seed + 100)
    original_counts = count_original_bulk(workload, base)
    result = BenchTable(
        f"Query engine: {records:,} records, {queries} range-COUNT queries, "
        f"columnar scan vs live writer",
        [
            "workload",
            "queries",
            "avg error",
            "scanned",
            "oracle",
            "queries/s",
        ],
    )
    service = AnonymizerService(
        RTreeAnonymizer(table, base_k=base_k), ServiceConfig()
    )
    extras: dict[str, float] = {}
    try:
        service.load(base)
        all_match = True
        for k in ks:
            before_scanned = obs.OBS.counter_value("query.partitions_scanned")
            answered = service.query(workload, k=k)  # cold: release + build
            scanned = (
                obs.OBS.counter_value("query.partitions_scanned") - before_scanned
            )
            with Timer() as timer:
                warm = service.query(workload, k=k)
            snapshot = service.release(k)
            oracle = [count_anonymized(query, snapshot.table) for query in workload]
            matches = (
                answered.digest == snapshot.digest
                and list(answered.values) == oracle
                and warm.values == answered.values
            )
            all_match = all_match and matches
            errors = [
                (anonymized - original) / original
                for anonymized, original in zip(answered.values, original_counts)
            ]
            result.add(
                f"k={k} scan",
                len(workload),
                sum(errors) / len(errors),
                scanned,
                "match" if matches else "MISMATCH",
                len(workload) / timer.elapsed,
            )
        extras["oracle_match"] = float(all_match)
        extras["partitions_scanned"] = float(
            obs.OBS.counter_value("query.partitions_scanned")
        )
        extras["engine_builds"] = float(
            obs.OBS.counter_value("query.engine_builds")
        )

        # Phase B: interleaving-dependent counters must not reach the
        # trail; switch collection off (values stay readable) and restore
        # without resetting afterwards.
        was_enabled = obs.OBS.enabled
        if was_enabled:
            obs.OBS.disable()
        try:
            top_k = ks[-1]
            rids = itertools.count(len(table))
            feed_points = itertools.cycle(feed)
            for readers in reader_counts:
                stop = threading.Event()

                def _writer() -> None:
                    while not stop.is_set():
                        batch = [
                            Record(next(rids), point.point, point.sensitive)
                            for point in itertools.islice(
                                feed_points, write_batch
                            )
                        ]
                        service.submit_insert_batch(batch)
                        service.barrier()

                per_reader = [
                    workload[index::readers] for index in range(readers)
                ]
                answered_counts = [0] * readers

                def _reader(index: int) -> None:
                    mine = per_reader[index]
                    for start in range(0, len(mine), reader_batch):
                        got = service.query(
                            mine[start : start + reader_batch], k=top_k
                        )
                        answered_counts[index] += len(got)

                writer = threading.Thread(
                    target=_writer, name="query-bench-writer", daemon=True
                )
                threads = [
                    threading.Thread(
                        target=_reader, args=(index,), daemon=True
                    )
                    for index in range(readers)
                ]
                with Timer() as timer:
                    writer.start()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    stop.set()
                writer.join()
                answered_total = sum(answered_counts)
                throughput = answered_total / timer.elapsed
                extras[f"qps_{readers}"] = throughput
                result.add(
                    f"{readers} readers vs writer",
                    answered_total,
                    "-",
                    "-",
                    "-",
                    throughput,
                )
        finally:
            if was_enabled:
                obs.OBS.enable(reset=False, declare_defaults=False)
    finally:
        service.close()
    result.extras = extras
    if owns_obs:
        obs.disable()
        obs.reset()
    return result


#: Registry used by the CLI: name -> driver.
DRIVERS: dict[str, Callable[..., BenchTable]] = {
    "fig7a": fig7a_bulk_times,
    "fig7a_parallel": fig7a_parallel,
    "fig7a_kernels": fig7a_kernels,
    "fig7b": fig7b_incremental_times,
    "fig8a": fig8a_scaling,
    "fig8b": fig8b_io_costs,
    "fig9": fig9_compaction_cost,
    "fig10": fig10_quality,
    "fig11": fig11_incremental_quality,
    "fig12a": fig12a_query_error,
    "fig12b": fig12b_selectivity,
    "fig12c": fig12c_biased,
    "fig12d": fig12d_biased_selectivity,
    "ablation-bulkload": ablation_bulkload,
    "ablation-split": ablation_split,
    "ablation-gridfile": ablation_gridfile,
    "ablation-loading": ablation_loading,
    "ablation-estimator": ablation_estimator,
    "ablation-weighted": ablation_weighted_certainty,
    "ablation-indexes": ablation_index_families,
    "multigranular": multigranular_report,
    "recovery": recovery_bench,
    "serve": serve_bench,
    "serve_cluster": serve_cluster_bench,
    "query_bench": query_bench,
}
