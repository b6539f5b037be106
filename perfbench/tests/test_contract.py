"""The benchmark keeps its own promises.

* ``BENCHMARK.json`` names exactly the workloads and metrics the harness
  produces.
* A fixed seed repeats ``ncp_per_record`` and every count-based layer
  metric exactly.
* Without the program's sources the command fails fast and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import measures
import pytest
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

#: Per-layer metrics read from registry counters: deterministic per seed.
COUNTED = (
    "index.leaf_splits_per_1k",
    "index.buffer_flushes_per_1k",
    "core.partitions_per_release",
    "serve.groups_per_step",
    "serve.cache_hit_ratio",
    "durability.fsyncs_per_step",
    "durability.wal_bytes_per_record",
    "query.nodes_visited_per_query",
    "query.partitions_scanned_per_query",
    "query.engine_cache_hit_ratio",
)


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measures.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measures.PER_LAYER
    assert set(COUNTED) <= set(measures.PER_LAYER)


@pytest.mark.usefixtures("tiny")
@pytest.mark.parametrize("workload", ["serve_publish", "query_serve"])
def test_fixed_seed_repeats_counts_exactly(workload: str, tmp_path: Path) -> None:
    runs = [
        workloads.run_workload(workload, 3, 2.0, tmp_path, traced=True, setup_repeats=1)
        for _ in range(2)
    ]
    first, second = (measures.per_layer(run, run) for run in runs)
    assert runs[0].correct and runs[1].correct
    assert runs[0].ncp_per_record == runs[1].ncp_per_record
    assert runs[0].attempted == runs[1].attempted
    for name in COUNTED:
        assert first[name] == second[name], name


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "query_serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
