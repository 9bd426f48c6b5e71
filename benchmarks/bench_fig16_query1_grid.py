"""Fig 16 — Query1 execution time over fanout vectors {fo1, fo2}.

The paper varies fo1 and fo2 manually (up to 60 query processes) and
finds the lowest execution-time region at 50-60 s with the best tree
{5,4} at 56.4 s — a bushy tree close to, but not exactly, balanced —
against a central plan of 244.8 s (speed-up 4.3).
"""

from benchmarks import harness
from benchmarks.harness import QUERY1_SQL, fanout_grid, near_balanced, run_central

NAME = None


def run(smoke: bool = False) -> dict:
    return {"cells": fanout_grid(QUERY1_SQL), "central": run_central(QUERY1_SQL).elapsed}


def report(payload: dict) -> None:
    harness.grid_report(payload, "Fig 16", "Query1")


def check(payload: dict) -> None:
    cells, central = payload["cells"], payload["central"]
    best = min(cells, key=cells.get)
    best_time = cells[best]
    assert 45.0 < best_time < 75.0  # lowest region 50-60 s
    assert near_balanced(best)  # "close to, but not exactly, balanced"
    assert 3.3 < central / best_time < 5.5  # speed-up ~4.3
    # The optimum is interior: both the smallest and the largest trees in
    # the grid are clearly worse than the best one.
    assert cells[(1, 1)] > 2.5 * best_time
    largest = max(cells, key=lambda c: c[0] + c[0] * c[1])
    assert cells[largest] > 1.05 * best_time
    # {1,1} is as slow as the central plan (same sequential behaviour plus
    # messaging overhead).
    assert cells[(1, 1)] > 0.9 * central


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
