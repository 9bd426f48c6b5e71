"""Fault tolerance: result completeness and overhead under injected faults.

The paper's protocol assumes children and their web-service calls never
fail; the pool-level fault-tolerance layer (``ProcessCosts.on_error``)
exists for when they do.  This bench quantifies what that layer costs and
what it buys on Query1 (two dependent-join levels, fanouts 5x4):

* under ``retry``, a sweep of injected per-call failure rates must still
  produce the complete, duplicate-free result set — the overhead is the
  redelivered calls' extra latency;
* under ``skip``, the query survives a 10% failure rate but reports how
  many rows it lost;
* with injected child crashes, dead children are respawned and the result
  is still complete.

Results are also written to
``BENCH_fault_tolerance.json`` (repository root) via
:func:`benchmarks.report.save_bench_json`.
"""

from __future__ import annotations

from dataclasses import replace

from repro import FaultInjection, ProcessCosts, QueryOptions, WSMED

SQL = """
Select gl.placename, gl.state
From   GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl
Where  gs.State = gp.state and gp.distance = 15.0
  and  gp.placeTypeToFind = 'City' and gp.place = 'Atlanta'
  and  gl.placeName = gp.ToCity + ', ' + gp.ToState
  and  gl.MaxItems = 100 and gl.imagePresence = 'true'
"""

FANOUTS = [5, 4]
FAILURE_RATES = (0.0, 0.05, 0.1, 0.2)
CRASH_RATE = 0.02
# Deep enough that even the 20% sweep point cannot exhaust a row's budget
# (p = 0.2 ** 9 per row); the default of 2 targets low real-world rates.
MAX_REDELIVERIES = 8

COSTS = ProcessCosts().scaled(0.01)


def _system() -> WSMED:
    system = WSMED(profile="fast", process_costs=COSTS)
    system.import_all()
    return system


def _run(system: WSMED, label: str, *, on_error=None, faults=None) -> dict:
    costs = replace(COSTS, max_redeliveries=MAX_REDELIVERIES)
    result = system.sql(
        SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=FANOUTS,
            process_costs=costs,
            on_error=on_error,
            faults=faults,
        ),
    )
    stats = result.fault_stats
    return {
        "label": label,
        "on_error": on_error or "fail",
        "call_failure_probability": (
            faults.call_failure_probability if faults else 0.0
        ),
        "crash_probability": faults.crash_probability if faults else 0.0,
        "elapsed": result.elapsed,
        "rows": len(result.rows),
        "total_calls": result.total_calls,
        "failed_calls": stats.failed_calls,
        "redeliveries": stats.redeliveries,
        "skipped_rows": stats.skipped_rows,
        "respawns": stats.respawns,
        "bag": result.as_bag(),
    }


def _sweep() -> list[dict]:
    system = _system()
    runs = [_run(system, "clean")]
    for rate in FAILURE_RATES[1:]:
        runs.append(
            _run(
                system,
                f"retry @ {rate:.0%} failures",
                on_error="retry",
                faults=FaultInjection(call_failure_probability=rate),
            )
        )
    runs.append(
        _run(
            system,
            "skip @ 10% failures",
            on_error="skip",
            faults=FaultInjection(call_failure_probability=0.1),
        )
    )
    runs.append(
        _run(
            system,
            f"retry @ {CRASH_RATE:.0%} crashes",
            on_error="retry",
            faults=FaultInjection(crash_probability=CRASH_RATE),
        )
    )
    return runs


def _report(runs: list[dict]) -> None:
    base = runs[0]
    print()
    print(f"Query1 fault tolerance, fanouts {FANOUTS} (fast profile):")
    for run in runs:
        overhead = run["elapsed"] / base["elapsed"] - 1.0
        complete = "complete" if run["bag"] == base["bag"] else (
            f"{run['rows']}/{base['rows']} rows"
        )
        print(
            f"  {run['label']:22s}: {run['elapsed']:6.2f} s "
            f"({overhead:+6.1%}), {complete}; "
            f"{run['failed_calls']:3d} failed, "
            f"{run['redeliveries']:3d} redelivered, "
            f"{run['skipped_rows']:2d} skipped, "
            f"{run['respawns']} respawns"
        )


def _emit_json(runs: list[dict]) -> None:
    from benchmarks.report import save_bench_json

    base = runs[0]
    save_bench_json(
        "fault_tolerance",
        {
            "workload": {
                "sql": "Query1 (states -> places -> place lists)",
                "fanouts": FANOUTS,
                "profile": "fast",
                "max_redeliveries": MAX_REDELIVERIES,
            },
            "runs": [
                {
                    **{k: v for k, v in run.items() if k != "bag"},
                    "complete": run["bag"] == base["bag"],
                    "overhead": run["elapsed"] / base["elapsed"] - 1.0,
                }
                for run in runs
            ],
        },
    )


def test_fault_tolerance_sweep(benchmark) -> None:
    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(runs)
    _emit_json(runs)

    base = runs[0]
    retry_runs = [run for run in runs if run["on_error"] == "retry"]
    skip_run = next(run for run in runs if run["on_error"] == "skip")
    crash_run = next(run for run in runs if run["crash_probability"] > 0)

    # Retry recovers the complete, duplicate-free result at every rate.
    for run in retry_runs:
        assert run["bag"] == base["bag"], run["label"]
    # Failures actually happened at the nonzero rates (the sweep is live).
    for run in retry_runs:
        if run["call_failure_probability"] >= 0.05 or run["crash_probability"]:
            assert run["failed_calls"] > 0, run["label"]
            assert run["redeliveries"] > 0, run["label"]
    # Skip trades completeness for progress, and says so.
    assert skip_run["rows"] < base["rows"]
    assert skip_run["skipped_rows"] > 0
    # Crashed children were replaced.
    assert crash_run["respawns"] >= 1


def main() -> None:
    runs = _sweep()
    _report(runs)
    _emit_json(runs)


if __name__ == "__main__":
    main()
