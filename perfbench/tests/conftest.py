"""Shared set-up for the benchmark's own tests: import paths, tiny sizes."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    """Shrink the serving workloads so one traced pass takes a few seconds."""
    monkeypatch.setattr(workloads, "SERVE_BASE_RECORDS", 4_000)
    monkeypatch.setattr(workloads, "PUBLISH_INSERTS", 100)
    monkeypatch.setattr(workloads, "PUBLISH_DELETES", 10)
    monkeypatch.setattr(workloads, "PUBLISH_UPDATES", 10)
    monkeypatch.setattr(workloads, "PUBLISH_STEPS_PER_SECOND", 10.0)
    monkeypatch.setattr(workloads, "QUERY_BATCHES_PER_SECOND", 30.0)
