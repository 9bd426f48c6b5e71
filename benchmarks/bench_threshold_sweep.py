"""AFF_APPLYP sensitivity to the change threshold.

Sec. V.A: "We experimented with different values of p and different
change thresholds, with and without the drop stage.  The results for 25 %
change are shown in Fig 21."  This bench regenerates the threshold
dimension: Query1 with p=2, no drop stage, across thresholds.

Expected shape: a small threshold keeps adding children aggressively
(larger trees, adaptation overhead), a large threshold stops early
(undersized trees); the paper's 25 % sits in the efficient middle.
"""

from repro import AdaptationParams, QueryOptions

from benchmarks import harness
from benchmarks.harness import PAPER, QUERY1_SQL, run_parallel, wsmed

NAME = None
THRESHOLDS = (0.05, 0.15, 0.25, 0.40, 0.60)


def run(smoke: bool = False) -> dict:
    rows = []
    for threshold in THRESHOLDS:
        result = wsmed().sql(
            QUERY1_SQL,
            options=QueryOptions(
                mode="adaptive",
                adaptation=AdaptationParams(p=2, threshold=threshold, drop_stage=False),
            ),
        )
        rows.append(
            {
                "threshold": threshold,
                "time": result.elapsed,
                "spawned": result.tree.processes_spawned,
                "fanouts": [round(f, 1) for f in result.tree.average_fanouts()],
            }
        )
    best = run_parallel(QUERY1_SQL, PAPER["query1_best_fanouts"]).elapsed
    return {"best_manual": best, "rows": rows}


def report(payload: dict) -> None:
    print(
        f"Threshold sweep — Query1, p=2, no drop "
        f"(best manual {payload['best_manual']:.1f} s)"
    )
    for row in payload["rows"]:
        print(
            f"  threshold={row['threshold']:<5} time={row['time']:7.1f} s  "
            f"spawned={row['spawned']:>3}  avg fanouts={row['fanouts']}"
        )


def check(payload: dict) -> None:
    rows = payload["rows"]
    by_threshold = {row["threshold"]: row for row in rows}
    # Lower thresholds keep expanding longer: tree sizes decrease (weakly)
    # as the threshold grows.
    spawned = [row["spawned"] for row in rows]
    assert all(a >= b for a, b in zip(spawned, spawned[1:]))
    # The paper's 25% choice stays within a reasonable factor of the best
    # manual tree.
    assert by_threshold[0.25]["time"] < 1.5 * payload["best_manual"]
    # Every threshold still produces a correct, finished run far faster
    # than the central plan.
    assert all(row["time"] < 150.0 for row in rows)


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
