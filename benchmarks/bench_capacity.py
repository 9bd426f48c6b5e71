"""Admission capacity: the concurrency sweep, and adaptive vs static.

Concurrency past the safe level does not fail queries — it quietly
inflates their latency: every extra in-flight query queues against the
same capacity-limited simulated services, so p50 grows with admitted
concurrency (the classic parallel-capacity sweep shape).  This bench
measures that sweep offline, then shows the online controller of
:mod:`repro.engine.admission` discovering the same knee by itself.

Two sections, both deterministic model seconds (``fast`` profile, Query1,
``parallel`` {5, 4}, no call cache so every query does real broker work):

* **sweep** — a static engine per admission level: p50 / worst latency of
  a 16-query batch at that level, inflation vs the level-1 baseline, and
  the max-safe level under the default 1.5x threshold (the table
  ``BENCH_capacity.json`` carries mirrors the querytorque sweep in
  SNIPPETS.md).

* **adaptive_vs_static** — 16 concurrent clients against (a) a static
  engine that admits all 16 and (b) an adaptive engine that must *find*
  the safe level online.  The claim the JSON asserts: the controller
  holds batch p50 inflation under the threshold while the over-admitted
  static baseline blows through it — on identical row bags.
"""

from __future__ import annotations

from repro import QUERY1_SQL, AdmissionConfig, QueryEngine, WSMED, QueryOptions
from repro.util.stats import quantile

from benchmarks import harness

NAME = "capacity"
QUERY_OPTIONS = QueryOptions(mode="parallel", fanouts=[5, 4])
SWEEP_LEVELS = (1, 2, 4, 8, 16)
SMOKE_LEVELS = (1, 4, 16)
CLIENTS = 16
THRESHOLD = 1.5


def _engine(**kwargs) -> QueryEngine:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    return QueryEngine(wsmed, **kwargs)


def _row_bag(results) -> list[tuple]:
    return sorted(tuple(row) for result in results for row in result.rows)


def measure_level(level: int) -> dict:
    """p50/worst latency of a 16-query batch admitted ``level`` at a time."""
    engine = _engine(max_concurrency=level)
    engine.sql_many([QUERY1_SQL] * level, options=QUERY_OPTIONS)  # warm trees
    results = engine.sql_many([QUERY1_SQL] * CLIENTS, options=QUERY_OPTIONS)
    engine.close()
    latencies = [result.elapsed for result in results]
    return {
        "level": level,
        "queries": len(latencies),
        "p50_model_s": quantile(latencies, 0.5),
        "worst_model_s": max(latencies),
        "errors": 0,
    }


def measure_sweep(levels) -> dict:
    rows = [measure_level(level) for level in levels]
    baseline = rows[0]["p50_model_s"]
    for row in rows:
        row["p50_inflation"] = row["p50_model_s"] / baseline
        row["worst_inflation"] = row["worst_model_s"] / baseline
    safe = [row["level"] for row in rows if row["p50_inflation"] <= THRESHOLD]
    return {
        "baseline_p50_model_s": baseline,
        "threshold": THRESHOLD,
        "levels": rows,
        "max_safe_level": max(safe),
    }


def measure_adaptive_vs_static() -> dict:
    """16 clients: over-admitting static engine vs the online controller."""
    static = _engine(max_concurrency=CLIENTS)
    baseline = static.sql(QUERY1_SQL, options=QUERY_OPTIONS).elapsed
    static_results = static.sql_many([QUERY1_SQL] * CLIENTS, options=QUERY_OPTIONS)
    static_rows = _row_bag(static_results)
    static.close()

    adaptive = _engine(
        max_concurrency=CLIENTS,
        admission=AdmissionConfig(threshold=THRESHOLD),
    )
    adaptive.sql(QUERY1_SQL, options=QUERY_OPTIONS)  # solo baseline sample
    adaptive_results = adaptive.sql_many([QUERY1_SQL] * CLIENTS, options=QUERY_OPTIONS)
    adaptive_rows = _row_bag(adaptive_results)
    stats = adaptive.stats()
    sweep_table = adaptive.admission.capacity.sweep_table()
    adaptive.close()

    static_latencies = [result.elapsed for result in static_results]
    adaptive_latencies = [result.elapsed for result in adaptive_results]
    return {
        "clients": CLIENTS,
        "threshold": THRESHOLD,
        "baseline_p50_model_s": baseline,
        "static_p50_model_s": quantile(static_latencies, 0.5),
        "static_p50_inflation": quantile(static_latencies, 0.5) / baseline,
        "adaptive_p50_model_s": quantile(adaptive_latencies, 0.5),
        "adaptive_p50_inflation": quantile(adaptive_latencies, 0.5) / baseline,
        "adaptive_limit": stats.admission_limit,
        "adaptive_raises": stats.admission_raises,
        "adaptive_backoffs": stats.admission_backoffs,
        "adaptive_shed": stats.admission_shed,
        "rows_identical": adaptive_rows == static_rows,
        "online_sweep": sweep_table,
    }


def run(smoke: bool = False) -> dict:
    levels = SMOKE_LEVELS if smoke else SWEEP_LEVELS
    return {
        "workload": {
            "sql": "Query1",
            "profile": "fast",
            "mode": "parallel",
            "fanouts": [5, 4],
            "cache": False,
            "batch": CLIENTS,
        },
        "sweep": measure_sweep(levels),
        "adaptive_vs_static": measure_adaptive_vs_static(),
    }


def report(payload: dict) -> None:
    sweep = payload["sweep"]
    print(
        f"capacity sweep (baseline p50 "
        f"{sweep['baseline_p50_model_s']:.4f} model s, "
        f"threshold {sweep['threshold']:.1f}x):"
    )
    for row in sweep["levels"]:
        marker = " " if row["p50_inflation"] <= sweep["threshold"] else "!"
        print(
            f" {marker} level {row['level']:>2}: "
            f"p50 {row['p50_model_s']:8.4f} model s "
            f"({row['p50_inflation']:5.2f}x), "
            f"worst {row['worst_model_s']:8.4f} "
            f"({row['worst_inflation']:5.2f}x)"
        )
    print(f"max safe level: {sweep['max_safe_level']}")
    versus = payload["adaptive_vs_static"]
    print(
        f"{versus['clients']} clients: static p50 inflation "
        f"{versus['static_p50_inflation']:.2f}x, adaptive "
        f"{versus['adaptive_p50_inflation']:.2f}x "
        f"(controller limit {versus['adaptive_limit']}, "
        f"{versus['adaptive_raises']} raises / "
        f"{versus['adaptive_backoffs']} backoffs, rows identical: "
        f"{versus['rows_identical']})"
    )


def check(payload: dict) -> None:
    sweep = payload["sweep"]
    # The sweep must actually show the knee: the deepest level over-
    # admits past the threshold, so a static max_concurrency there is
    # the wrong default for this workload.
    assert sweep["levels"][-1]["p50_inflation"] > sweep["threshold"], sweep
    versus = payload["adaptive_vs_static"]
    assert versus["static_p50_inflation"] > versus["threshold"], versus
    assert versus["adaptive_p50_inflation"] < versus["threshold"], versus
    assert versus["rows_identical"], "admission must never change results"
    assert versus["adaptive_shed"] == 0, "no deadlines configured, no shedding"


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
