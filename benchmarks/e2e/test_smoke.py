"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e``.

Outside tier-1's ``testpaths``; runs the manifest check and a two-round
pass over every workload, untraced and traced, through the same command
the driver uses.
"""

import json
import os
import subprocess
import sys

from benchmarks.e2e import ROOT, check_manifest
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_manifest_agrees_with_metric_table() -> None:
    assert check_manifest.check_manifest() == []


def test_smoke_end_to_end() -> None:
    done = _run("--smoke", "--label", "smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(ROOT, "benchmarks/e2e/out/smoke.json")) as handle:
        runs = json.load(handle)["runs"]
    assert list(runs) == list(WORKLOADS)
    for name, (result,) in runs.items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == {row[0] for row in END_TO_END}
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_smoke_traced_pass_confirms_the_design() -> None:
    shares = {}
    for name in ("oneshot_paper", "engine_warm", "process_wire"):
        done = _run("--workload", name, "--seconds", "2", "--smoke", "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
        assert result["correct"], name
        metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
        assert set(metrics) == {row[0] for row in PER_LAYER}
        assert os.path.exists(
            os.path.join(ROOT, f"benchmarks/e2e/out/trace-{name}.json")
        )
        layers = {
            key[: -len(".self_ms_per_query")]: value
            for key, value in metrics.items()
            if key.endswith(".self_ms_per_query")
        }
        total = sum(layers.values())
        services = sum(v for k, v in layers.items() if k.startswith("services."))
        shares[name] = (services / total, layers["runtime.wire"], metrics)
    assert shares["oneshot_paper"][0] >= 0.40
    assert shares["engine_warm"][0] <= 0.02
    assert shares["oneshot_paper"][1] == 0.0 and shares["engine_warm"][1] == 0.0
    assert shares["process_wire"][1] > 0.0
    assert shares["oneshot_paper"][2]["services.broker.calls_per_query"] == 311
    assert shares["engine_warm"][2]["services.broker.calls_per_query"] == 0
    assert shares["process_wire"][2]["services.broker.calls_per_query"] == 311
