"""Fault tolerance: result completeness and overhead under injected faults.

The paper's protocol assumes children and their web-service calls never
fail; the pool-level fault-tolerance layer (the query's ``on_error``
policy, ``QueryOptions.on_error``) exists for when they do.  The faults
are the query's own ``QueryOptions.faults``
(:class:`~repro.parallel.faults.FaultInjection`).  This bench quantifies what that layer costs and
what it buys on Query1 (two dependent-join levels, fanouts 5x4):

* under ``retry``, a sweep of injected per-call failure rates must still
  produce the complete, duplicate-free result set — the overhead is the
  redelivered calls' extra latency;
* under ``skip``, the query survives a 10% failure rate but reports how
  many rows it lost;
* with injected child crashes, dead children are respawned and the result
  is still complete.
"""

from __future__ import annotations

from dataclasses import replace

from repro import QUERY1_SQL, FaultInjection, ProcessCosts, QueryOptions, WSMED

from benchmarks import harness

NAME = "fault_tolerance"

FANOUTS = [5, 4]
FAILURE_RATES = (0.0, 0.05, 0.1, 0.2)
CRASH_RATE = 0.02
# Deep enough that even the 20% sweep point cannot exhaust a row's budget
# (p = 0.2 ** 9 per row); the default of 2 targets low real-world rates.
MAX_REDELIVERIES = 8

COSTS = ProcessCosts().scaled(0.01)


def _run(system: WSMED, label: str, *, on_error="fail", faults=None) -> dict:
    costs = replace(COSTS, max_redeliveries=MAX_REDELIVERIES)
    result = system.sql(
        QUERY1_SQL,
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
        "on_error": on_error,
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


def run(smoke: bool = False) -> dict:
    system = WSMED(profile="fast", process_costs=COSTS)
    system.import_all()
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
    base = runs[0]
    return {
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
    }


def report(payload: dict) -> None:
    runs = payload["runs"]
    print(f"Query1 fault tolerance, fanouts {FANOUTS} (fast profile):")
    for run in runs:
        complete = (
            "complete" if run["complete"] else f"{run['rows']}/{runs[0]['rows']} rows"
        )
        print(
            f"  {run['label']:22s}: {run['elapsed']:6.2f} s "
            f"({run['overhead']:+6.1%}), {complete}; "
            f"{run['failed_calls']:3d} failed, "
            f"{run['redeliveries']:3d} redelivered, "
            f"{run['skipped_rows']:2d} skipped, "
            f"{run['respawns']} respawns"
        )


def check(payload: dict) -> None:
    runs = payload["runs"]
    base = runs[0]
    retry_runs = [run for run in runs if run["on_error"] == "retry"]
    skip_run = next(run for run in runs if run["on_error"] == "skip")
    crash_run = next(run for run in runs if run["crash_probability"] > 0)

    # Retry recovers the complete, duplicate-free result at every rate.
    for run in retry_runs:
        assert run["complete"], run["label"]
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


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
