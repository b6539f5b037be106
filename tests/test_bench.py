"""The bench harness: table formatting, figure drivers (tiny sizes), CLI."""

from __future__ import annotations

import pytest

from repro.bench import figures
from repro.bench.runner import BenchTable, Timer, best_of, environment_report
from repro.cli import main


class TestRunner:
    def test_timer_measures(self) -> None:
        with Timer() as timer:
            sum(range(10_000))
        assert timer.elapsed > 0

    def test_best_of_returns_minimum(self) -> None:
        calls = []

        def action() -> None:
            calls.append(1)

        elapsed = best_of(3, action)
        assert len(calls) == 3
        assert elapsed >= 0

    def test_table_shape_enforced(self) -> None:
        table = BenchTable("t", ["a", "b"])
        table.add(1, 2)
        with pytest.raises(ValueError):
            table.add(1)

    def test_table_rendering(self) -> None:
        table = BenchTable("demo", ["k", "value"])
        table.add(5, 1234.5678)
        table.add(10, float("nan"))
        rendered = table.render()
        assert "demo" in rendered
        assert "1,235" in rendered  # compact thousands formatting
        assert "-" in rendered  # NaN renders as a dash

    def test_environment_report(self) -> None:
        table = environment_report()
        assert any("CPython" in str(row[1]) for row in table.rows)


class TestFigureDrivers:
    """Every driver runs at toy sizes and yields a well-formed table.

    Shape assertions live in ``benchmarks/``; here the contract is: right
    columns, right row count, no crashes at small scale.
    """

    def test_fig7a(self) -> None:
        table = figures.fig7a_bulk_times(records=1_500, ks=(5, 10))
        assert len(table.rows) == 2
        assert "mondrian (s)" in table.headers

    def test_fig7a_kernels(self) -> None:
        table = figures.fig7a_kernels(
            records=3_000, scalar_sample=500, batch_size=512
        )
        assert [row[0] for row in table.rows] == [
            "encode", "decode", "hilbert keying",
        ]
        # The match column is the bit-identity cross-check on the shared
        # slice; any "NO" means a kernel diverged from its scalar oracle.
        assert all(row[-1] == "yes" for row in table.rows)
        assert set(table.extras) == {
            "encode_speedup", "decode_speedup", "keying_speedup",
        }

    def test_fig7b(self) -> None:
        table = figures.fig7b_incremental_times(batches=3, batch_size=400, k=5)
        assert len(table.rows) == 3
        assert table.rows[-1][1] == 1_200  # cumulative record count

    def test_fig8a(self) -> None:
        table = figures.fig8a_scaling(sizes=(500, 1_000), k=5)
        assert [row[0] for row in table.rows] == [500, 1_000]

    def test_fig8b(self) -> None:
        table = figures.fig8b_io_costs(records=2_000, k=5)
        assert len(table.rows) == 4
        assert all(row[3] == row[1] + row[2] for row in table.rows)

    def test_fig9(self) -> None:
        table = figures.fig9_compaction_cost(sample_sizes=(500, 1_000), k=5)
        assert all(0 <= row[3] <= 100 for row in table.rows)

    def test_fig10(self) -> None:
        table = figures.fig10_quality(records=1_500, ks=(5,))
        algorithms = {row[1] for row in table.rows}
        assert algorithms == {"rtree", "mondrian", "mondrian+compact"}

    def test_fig11(self) -> None:
        table = figures.fig11_incremental_quality(batches=2, batch_size=500, k=5)
        assert len(table.rows) == 4  # 2 batches x 2 algorithms

    def test_fig12a(self) -> None:
        table = figures.fig12a_query_error(records=1_500, ks=(5,), queries=50)
        assert len(table.rows) == 1

    def test_fig12b(self) -> None:
        table = figures.fig12b_selectivity(records=1_500, k=5, queries=50)
        assert len(table.rows) >= 3

    def test_fig12c(self) -> None:
        table = figures.fig12c_biased(records=1_500, ks=(5,), queries=50)
        assert len(table.rows) == 1

    def test_fig12d(self) -> None:
        table = figures.fig12d_biased_selectivity(records=1_500, k=5, queries=50)
        assert len(table.rows) >= 3

    def test_ablation_bulkload(self) -> None:
        table = figures.ablation_bulkload(records=1_500, k=5)
        assert {str(row[0]) for row in table.rows} == {
            "buffer-tree",
            "hilbert sort",
            "STR",
        }

    def test_ablation_split(self) -> None:
        table = figures.ablation_split(records=1_500, k=5)
        assert [str(row[0]) for row in table.rows] == [
            "min-margin (top-3 axes)",
            "min-margin (all axes)",
            "midpoint (Mondrian-like)",
            "weighted (zipcode x4)",
        ]

    def test_multigranular(self) -> None:
        table = figures.multigranular_report(
            records=1_500, base_k=5, granularities=(5, 10)
        )
        assert len(table.rows) >= 3

    def test_registry_covers_every_driver(self) -> None:
        assert set(figures.DRIVERS) == {
            "fig7a", "fig7a_parallel", "fig7a_kernels", "fig7b",
            "fig8a", "fig8b", "fig9", "fig10", "fig11",
            "fig12a", "fig12b", "fig12c", "fig12d",
            "ablation-bulkload", "ablation-split", "ablation-gridfile",
            "ablation-estimator", "ablation-weighted", "ablation-indexes",
            "ablation-loading", "multigranular", "recovery", "serve",
            "query_bench",
        }

    def test_recovery_bench(self, tmp_path, monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        table = figures.recovery_bench(records=1_000, tail_ops=(0, 100), k=5)
        assert len(table.rows) == 2
        assert all(row[-1] == "yes" for row in table.rows)  # digest match

    def test_serve_bench(self) -> None:
        table = figures.serve_bench(
            records=1_000,
            write_rounds=2,
            write_batch=50,
            reads_per_round=5,
            ks=(5, 10),
            repeats=1,
        )
        assert [str(row[0]) for row in table.rows] == [
            "on", "off", "on+telemetry",
        ]
        cached, uncached, telemetry = table.rows
        assert cached[5] > 0  # the cache actually hit
        assert uncached[5] == 0  # and was actually off
        assert telemetry[5] > 0  # the telemetry run still serves cached
        # The overhead delta rides along for the regression trail.
        assert {
            "telemetry_off_reads_per_s",
            "telemetry_on_reads_per_s",
            "telemetry_overhead",
        } <= set(table.extras)
        assert table.extras["telemetry_overhead"] < 1.0
        # So do the p50/p90/p99 serving-latency sketches (the bench owns
        # the registry when the caller has not enabled it).
        for short in ("queue_wait", "commit", "release"):
            for q in ("p50", "p90", "p99"):
                assert table.extras[f"{short}_{q}"] >= 0
        assert table.extras["commit_p99"] > 0
        assert table.extras["wal_fsync_p99"] == 0  # no durability dir here
        rendered = table.render()
        assert "telemetry_overhead" in rendered
        assert "commit_p99" in rendered

    def test_query_bench(self) -> None:
        table = figures.query_bench(
            records=800,
            queries=40,
            ks=(10,),
            reader_counts=(2,),
            write_batch=50,
            reader_batch=10,
            seed=1,
        )
        # One accuracy row per k plus one throughput row per reader count.
        assert len(table.rows) == 2
        accuracy, throughput = table.rows
        assert accuracy[4] == "match"  # scan == scalar oracle
        assert table.extras["oracle_match"] == 1.0
        # Every query compares against every partition of the release.
        assert accuracy[3] > 0 and accuracy[3] % 40 == 0
        assert table.extras["partitions_scanned"] > 0
        assert table.extras["qps_2"] > 0
        assert throughput[5] > 0


class TestCLI:
    def test_list(self, capsys) -> None:
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig10" in output and "table1" in output

    def test_table1(self, capsys) -> None:
        assert main(["table1"]) == 0
        assert "CPython" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys) -> None:
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_figure_with_overrides(self, capsys) -> None:
        assert main(["fig12a", "--records", "600", "--queries", "20"]) == 0
        assert "Figure 12(a)" in capsys.readouterr().out

    def test_inapplicable_overrides_ignored(self, capsys) -> None:
        # The multigranular driver takes no --k parameter; it must be
        # silently dropped rather than crash the call.
        assert main(["multigranular", "--records", "800", "--k", "3"]) == 0
        assert "Multi-granular" in capsys.readouterr().out

    def test_csv_output(self, capsys, tmp_path) -> None:
        target = tmp_path / "rows.csv"
        assert main(
            ["fig12a", "--records", "600", "--queries", "20", "--csv", str(target)]
        ) == 0
        capsys.readouterr()
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,title,k")
        assert all(line.startswith("fig12a,") for line in lines[1:])
        assert len(lines) > 1
