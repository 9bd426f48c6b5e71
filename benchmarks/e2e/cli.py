"""The benchmark command.

One run (what the driver invokes)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload (each in a fresh process,
``--repeat`` times on consecutive seeds) and stores the results under
``benchmarks/e2e/out/<label>.json`` for ``--compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import subprocess
import sys
import time
from statistics import median

from . import HERE, ROOT, check_manifest
from .compare import compare
from .layers import layer_self_seconds
from .measure import Tracer, cpu_seconds, peak_rss_mb, tail
from .metrics import END_TO_END, LAYERS, PER_LAYER
from .probes import run_probes
from .workloads import WORKLOADS, AsyncioBaseline, Workload

OUT = os.path.join(HERE, "out")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_ROUNDS = 2
TRACE_ROUNDS = 5
#: Queries of the in-process asyncio baseline behind ``runtime.wire.tax_ratio``.
TAX_QUERIES = 20

_ENTRY_POINTS = {
    "oneshot_paper": {
        label: f"wsmed.{label}_ms_p50" for label in ("central", "parallel", "adaptive")
    },
    "engine_chain_mix": {
        kind: f"engine.{kind}_ms_p50"
        for kind in ("chain", "join", "aggregate", "or", "limit")
    },
    "http_serve": {
        "q1": "serve.q1_request_ms_p50",
        "small": "serve.small_request_ms_p50",
    },
}


class Window:
    """What one measured stretch of rounds produced."""

    def __init__(self, workload: Workload, stop, parent: int = -1) -> None:
        gc.collect()
        counts_before = workload.engine_counts()
        child_cpu = cpu_seconds(workload.children())
        self.rounds, self.wall_s = workload.measure(stop, parent)
        self.child_cpu_s = cpu_seconds(workload.children()) - child_cpu
        counts_after = workload.engine_counts()
        self.samples = [sample for round_ in self.rounds for sample in round_]
        self.failed = sum(not sample.ok for sample in self.samples)
        own = [os.getpid()] if workload.in_process else []
        self.cpu_s = self.child_cpu_s + (
            sum(s.cpu_s for s in self.samples) if workload.in_process else 0.0
        )
        self.peak_rss_mb = peak_rss_mb(own + workload.children())
        self.engine = None
        if counts_after is not None:
            self.engine = {
                key: counts_after[key] - counts_before[key] for key in counts_after
            }
            self.engine["peak_concurrency"] = counts_after["peak_concurrency"]

    def per_round_ms(self, field: str) -> list[float]:
        return [
            1e3 * sum(getattr(s, field) for s in round_) / len(round_)
            for round_ in self.rounds
        ]

    def total(self, count: str) -> float:
        return sum(sample.counts.get(count, 0) for sample in self.samples)


def _until(seconds: float, rounds: int | None = None):
    """Stop after ``seconds`` (and at least one round), or ``rounds`` rounds."""
    deadline = time.perf_counter() + seconds

    def stop(done: int) -> bool:
        if rounds is not None and done >= rounds:
            return True
        return done >= 1 and time.perf_counter() >= deadline

    return stop


def _set_up(cls, seed: int, tracer: Tracer) -> tuple[Workload, float]:
    workload = cls(seed, tracer)
    started = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - started


def run_end_to_end(cls, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int]:
    """``(metric values, queries attempted, queries failed)``, untraced."""
    tracer = Tracer(False)
    setups = []
    repeats = 1 if smoke else SETUP_REPEATS
    for index in range(repeats):
        workload, took = _set_up(cls, seed, tracer)
        setups.append(took)
        if index < repeats - 1:
            workload.close()
    try:
        window = Window(
            workload, _until(seconds, SMOKE_ROUNDS if smoke else None)
        )
    finally:
        workload.close()
    queries = len(window.samples)
    values = {
        "setup_s": median(setups),
        "query_ms_p50": median(window.per_round_ms("wall_s")),
        "first_row_ms_p50": median(window.per_round_ms("first_row_s")),
        "queries_per_s": (queries - window.failed) / window.wall_s,
        "cpu_ms_per_query": 1e3 * window.cpu_s / queries,
        "peak_rss_mb": window.peak_rss_mb,
    }
    return values, queries, window.failed


def run_per_layer(cls, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int]:
    """The per-layer pass: probes, an untraced window for counts and
    per-entry-point medians, then a short traced and profiled window."""
    values = dict.fromkeys((row[0] for row in PER_LAYER), 0.0)
    values.update(
        run_probes(seed, batches=1 if smoke else 5, scale=20 if smoke else 1)
    )
    rounds = SMOKE_ROUNDS if smoke else None

    # Untraced pass: counts, per-entry-point medians, the overhead baseline.
    workload, _ = _set_up(cls, seed, Tracer(False))
    try:
        plain = Window(workload, _until(0.4 * seconds, rounds))
    finally:
        workload.close()
    queries = attempted = len(plain.samples)
    failed = plain.failed
    walls_ms = [1e3 * s.wall_s for s in plain.samples]
    values["services.broker.calls_per_query"] = plain.total("calls") / queries
    values["services.broker.bytes_per_query"] = plain.total("bytes") / queries
    values["parallel.messages_per_query"] = plain.total("messages") / queries
    values["parallel.processes_per_query"] = plain.total("processes") / queries
    if cls.model_clock:
        values["runtime.simulated.model_s_per_query"] = plain.total("model_s") / queries
    values["wsmed.rows_per_query"] = plain.total("rows") / queries
    lookups = plain.total("cache_lookups")
    values["cache.hit_rate"] = plain.total("cache_hits") / lookups if lookups else 0.0
    if plain.total("http_bytes"):
        values["serve.bytes_per_row"] = plain.total("http_bytes") / plain.total("rows")
        values["serve.request_ms_p95"] = tail(walls_ms)[1]
    if plain.engine is not None:
        engine = plain.engine
        plans = engine["plan_cache_hits"] + engine["plan_cache_misses"]
        leases = engine["warm_leases"] + engine["cold_starts"]
        values["engine.plan_cache.hit_rate"] = (
            engine["plan_cache_hits"] / plans if plans else 0.0
        )
        values["engine.pools.warm_lease_rate"] = (
            engine["warm_leases"] / leases if leases else 0.0
        )
        values["engine.admission.peak_concurrency"] = float(engine["peak_concurrency"])
    for label, name in _ENTRY_POINTS.get(cls.name, {}).items():
        values[name] = median([1e3 * s.wall_s for s in plain.samples if s.label == label])
    percentile, values["bench.query_ms_p95"] = tail(walls_ms)
    print(f"tail: p{percentile:.1f} of {len(walls_ms)} query samples")
    if cls.name == "process_wire":
        values["runtime.workers.cpu_ms_per_query"] = 1e3 * plain.child_cpu_s / queries
        baseline, _ = _set_up(AsyncioBaseline, seed, Tracer(False))
        try:
            reference = Window(
                baseline, _until(seconds, SMOKE_ROUNDS if smoke else TAX_QUERIES)
            )
        finally:
            baseline.close()
        attempted += len(reference.samples)
        failed += reference.failed
        values["runtime.wire.tax_ratio"] = median(walls_ms) / median(
            [1e3 * s.wall_s for s in reference.samples]
        )

    # Traced pass: the benchmark's own spans plus cProfile by layer.
    tracer = Tracer(True)
    workload, _ = _set_up(cls, seed, tracer)
    stats_file = os.path.join(OUT, f"profile-{cls.name}.pstats")
    try:
        if workload.in_process:
            workload.profiler = cProfile.Profile(builtins=False)
        else:
            os.makedirs(OUT, exist_ok=True)
            workload.command("profile_on")
        traced = Window(workload, _until(0.3 * seconds, rounds or TRACE_ROUNDS))
        if not workload.in_process:
            workload.command(f"profile_off {stats_file}")
    finally:
        workload.close()
    tracer.write(os.path.join(OUT, f"trace-{cls.name}.json"))
    traced_queries = len(traced.samples)
    layers = layer_self_seconds(workload.profiler or stats_file)
    for layer in LAYERS:
        values[f"{layer}.self_ms_per_query"] = 1e3 * layers[layer] / traced_queries
    values["bench.profile_coverage_ratio"] = sum(layers.values()) / traced.wall_s
    values["bench.trace_overhead_ratio"] = median(traced.per_round_ms("wall_s")) / median(
        plain.per_round_ms("wall_s")
    )
    return values, attempted + traced_queries, failed + traced.failed


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One workload, one mode; the last stdout line is the driver's JSON."""
    run = run_per_layer if trace else run_end_to_end
    values, attempted, failed = run(WORKLOADS[name], seed, seconds, smoke)
    units = {row[0]: row[1] for row in PER_LAYER + END_TO_END}
    metrics = {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in values.items()
    }
    errors = check_manifest.check_printed(metrics, trace)
    print(f"workload {name} seed {seed} ({'per-layer' if trace else 'end-to-end'})")
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>14.4f} {entry['unit']}")
    print(f"  {'queries_attempted':<40} {attempted:>14d} count")
    print(f"  {'queries_failed':<40} {failed:>14d} count")
    print(f"  {'failed_share':<40} {failed / attempted:>14.4f} ratio")
    for error in errors:
        print(f"metric table: {error}", file=sys.stderr)
    if errors:
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args, seconds: float) -> int:
    """Every (or the chosen) workload in fresh processes; results to ``out/``."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list] = {name: [] for name in names}
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name,
                "--seed", str(args.seed + repeat),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode != 0:
                status = 1
                continue
            result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
            status |= 0 if result["correct"] else 1
            runs[name].append(result)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.label}.json")
    with open(path, "w") as handle:
        json.dump({"seed": args.seed, "trace": args.trace, "runs": runs}, handle, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the per-layer pass (probes, counts, spans, cProfile by layer)",
    )
    parser.add_argument("--smoke", action="store_true", help="2 rounds per workload")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--label", default="latest", help="name of the results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    errors = check_manifest.check_manifest()
    for error in errors:
        print(f"BENCHMARK.json: {error}", file=sys.stderr)
    if errors:
        return 1
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = check_manifest.load_manifest()["run_seconds"]
    # The driver passes --workload with --seconds: that is one run, here.
    if args.workload and args.seconds is not None:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    return run_all(args, seconds)
