"""The benchmark-regression trail: run, write, load, compare, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.bench.regression import (
    BENCH_SCHEMA_VERSION,
    KEY_COUNTERS,
    compare_bench,
    core_figures,
    load_bench,
    run_core_bench,
    write_bench,
)

#: A tiny pinned workload so the trail tests run in well under a second.
TINY_FIGURES = [
    ("fig7a", {"records": 600, "ks": (5,), "seed": 1}),
]


@pytest.fixture(scope="module")
def tiny_bench() -> dict:
    return run_core_bench(figures=TINY_FIGURES)


class TestRunCoreBench:
    def test_document_shape(self, tiny_bench: dict) -> None:
        assert tiny_bench["schema_version"] == BENCH_SCHEMA_VERSION
        assert "environment" in tiny_bench
        entry = tiny_bench["figures"]["fig7a"]
        assert entry["seconds"] > 0
        assert set(entry["counters"]) == set(KEY_COUNTERS)
        # The instrumented run must actually have counted the hot paths.
        assert entry["counters"]["rtree.leaf_splits"] > 0
        assert entry["counters"]["anonymizer.releases"] > 0
        json.dumps(tiny_bench)

    def test_counters_are_deterministic(self, tiny_bench: dict) -> None:
        again = run_core_bench(figures=TINY_FIGURES)
        assert (
            again["figures"]["fig7a"]["counters"]
            == tiny_bench["figures"]["fig7a"]["counters"]
        )

    def test_quick_and_core_sets_cover_the_same_figures(self) -> None:
        assert [name for name, _ in core_figures(quick=True)] == [
            name for name, _ in core_figures(quick=False)
        ]

    def test_leaves_global_obs_disabled(self, tiny_bench: dict) -> None:
        from repro import obs

        assert not obs.OBS.enabled


class TestWriteLoad:
    def test_round_trip(self, tiny_bench: dict, tmp_path) -> None:
        path = write_bench(tiny_bench, tmp_path / "bench.json")
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(tiny_bench))

    def test_load_rejects_unknown_schema(self, tmp_path) -> None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999, "figures": {}}))
        with pytest.raises(ValueError, match="schema version"):
            load_bench(path)


class TestCompare:
    def test_identical_runs_pass(self, tiny_bench: dict) -> None:
        report = compare_bench(tiny_bench, tiny_bench)
        assert report.ok
        assert [figure.status for figure in report.figures] == ["ok"]
        assert "PASS" in report.render()

    def test_injected_slowdown_fails(self, tiny_bench: dict) -> None:
        slow = json.loads(json.dumps(tiny_bench))
        entry = slow["figures"]["fig7a"]
        entry["seconds"] = entry["seconds"] * 10
        report = compare_bench(slow, tiny_bench, time_tolerance=1.0)
        assert not report.ok
        (figure,) = report.regressions
        assert figure.status == "regression"
        assert figure.time_ratio == pytest.approx(10.0)
        assert "FAIL" in report.render()

    def test_counter_drift_fails_even_when_fast(self, tiny_bench: dict) -> None:
        drifted = json.loads(json.dumps(tiny_bench))
        drifted["figures"]["fig7a"]["counters"]["rtree.leaf_splits"] += 50
        report = compare_bench(drifted, tiny_bench)
        assert not report.ok
        assert any(
            "rtree.leaf_splits" in message
            for figure in report.regressions
            for message in figure.messages
        )

    def test_config_mismatch_is_a_hard_failure(self, tiny_bench: dict) -> None:
        changed = json.loads(json.dumps(tiny_bench))
        changed["figures"]["fig7a"]["config"]["records"] = 999
        report = compare_bench(changed, tiny_bench)
        assert not report.ok
        assert report.figures[0].status == "config-mismatch"

    def test_extras_ride_along_but_never_fail_a_comparison(self) -> None:
        document = run_core_bench(
            figures=[
                (
                    "serve",
                    {
                        "records": 400,
                        "write_rounds": 2,
                        "write_batch": 20,
                        "reads_per_round": 3,
                        "ks": (5,),
                        "seed": 1,
                        "repeats": 1,
                    },
                )
            ]
        )
        entry = document["figures"]["serve"]
        assert "telemetry_overhead" in entry["extras"]
        assert "telemetry_on_reads_per_s" in entry["extras"]
        # The extras are informational: doctoring them must not trip the
        # comparison, which only reads config/seconds/counters.
        doctored = json.loads(json.dumps(document))
        doctored["figures"]["serve"]["extras"]["telemetry_overhead"] = 99.0
        assert compare_bench(doctored, document).ok

    def test_missing_and_new_figures(self, tiny_bench: dict) -> None:
        empty = {"schema_version": BENCH_SCHEMA_VERSION, "figures": {}}
        missing = compare_bench(empty, tiny_bench)
        assert not missing.ok
        assert missing.figures[0].status == "missing"
        new = compare_bench(tiny_bench, empty)
        assert new.ok  # new figures never fail a comparison
        assert new.figures[0].status == "new"


class TestCLIBench:
    def test_bench_writes_and_compares_clean(
        self, tiny_bench: dict, tmp_path, monkeypatch
    ) -> None:
        from repro import cli
        from repro.bench import regression

        monkeypatch.setattr(
            regression, "core_figures", lambda quick=False: TINY_FIGURES
        )
        baseline = write_bench(tiny_bench, tmp_path / "baseline.json")
        out = tmp_path / "current.json"
        exit_code = cli.main(
            [
                "bench",
                "--quick",
                "--out",
                str(out),
                "--compare",
                str(baseline),
                "--tolerance",
                "50",
            ]
        )
        assert exit_code == 0
        assert out.exists()

    def test_bench_exits_nonzero_on_regression(
        self, tiny_bench: dict, tmp_path, monkeypatch
    ) -> None:
        from repro import cli
        from repro.bench import regression

        monkeypatch.setattr(
            regression, "core_figures", lambda quick=False: TINY_FIGURES
        )
        # Inject an impossibly fast baseline: the fresh run must exceed the
        # tolerance and the CLI must signal the regression via exit code.
        fast = json.loads(json.dumps(tiny_bench))
        fast["figures"]["fig7a"]["seconds"] = 1e-9
        baseline = write_bench(fast, tmp_path / "baseline.json")
        exit_code = cli.main(
            [
                "bench",
                "--quick",
                "--out",
                str(tmp_path / "current.json"),
                "--compare",
                str(baseline),
            ]
        )
        assert exit_code == 1

    def test_out_naming_the_baseline_exits_2_before_running(
        self, tiny_bench: dict, tmp_path, monkeypatch
    ) -> None:
        """``--compare BENCH_core.json`` with the default ``--out`` (the same
        file) used to overwrite the baseline and compare the run with
        itself."""
        from repro import cli
        from repro.bench import regression

        def must_not_run(quick: bool = False) -> dict:
            raise AssertionError("the bench set ran")

        monkeypatch.setattr(regression, "run_core_bench", must_not_run)
        monkeypatch.chdir(tmp_path)
        baseline = write_bench(tiny_bench, regression.DEFAULT_BENCH_PATH)
        before = baseline.read_bytes()
        assert cli.main(["bench", "--compare", str(baseline)]) == 2
        assert (
            cli.main(
                ["bench", "--compare", str(baseline.resolve()), "--out", "./"
                 + regression.DEFAULT_BENCH_PATH]
            )
            == 2
        )
        assert baseline.read_bytes() == before

    def test_baseline_is_loaded_before_the_run(
        self, tiny_bench: dict, tmp_path, monkeypatch
    ) -> None:
        from repro import cli
        from repro.bench import regression

        fast = json.loads(json.dumps(tiny_bench))
        fast["figures"]["fig7a"]["seconds"] = 1e-9
        baseline = write_bench(fast, tmp_path / "baseline.json")

        def run_over_the_baseline(quick: bool = False) -> dict:
            # Rewrite the baseline file mid-run: the comparison must still
            # be against the impossibly fast figure it held beforehand.
            write_bench(tiny_bench, baseline)
            return tiny_bench

        monkeypatch.setattr(regression, "run_core_bench", run_over_the_baseline)
        out = tmp_path / "current.json"
        code = cli.main(
            ["bench", "--compare", str(baseline), "--out", str(out)]
        )
        assert code == 1
        assert load_bench(out) == tiny_bench

        def must_not_run(quick: bool = False) -> dict:
            raise AssertionError("the bench set ran")

        monkeypatch.setattr(regression, "run_core_bench", must_not_run)
        with pytest.raises(FileNotFoundError):
            cli.main(
                ["bench", "--compare", str(tmp_path / "absent.json"),
                 "--out", str(out)]
            )
