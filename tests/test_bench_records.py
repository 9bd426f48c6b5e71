"""The tracked ``BENCH_*.json`` records are what their benches produce today.

Every record is a deterministic model-time run, so a change that moves a
number must regenerate the record in the same commit.  The four benches
below finish in about a second each; ``capacity`` and ``multiquery``
(about ten seconds each) are regenerated and diffed by a CI step instead.
"""

import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["batching", "call_cache", "fault_tolerance", "optimizer"])
def test_record_regenerates_exactly(name, tmp_path, monkeypatch) -> None:
    bench = importlib.import_module(f"benchmarks.bench_{name}")
    monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path))
    bench.main([])
    record = f"BENCH_{name}.json"
    assert (tmp_path / record).read_text() == (REPO / record).read_text()
