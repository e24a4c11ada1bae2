"""Test configuration: make tests/ importable for shared helpers, and keep
the suite from writing into the tracked ``benchmarks/results``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _harness_results_dir(tmp_path_factory, monkeypatch):
    """Point the harness's progress log and result files at a temp dir."""
    from repro import harness

    monkeypatch.setattr(
        harness, "RESULTS_DIR", tmp_path_factory.getbasetemp() / "results"
    )
