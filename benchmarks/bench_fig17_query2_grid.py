"""Fig 17 — Query2 execution time over fanout vectors {fo1, fo2}.

Paper: best execution time 1243.89 s for fanout vector {4,3}, a speed-up
of nearly 2 over the central plan's 2412.95 s; the low region is
1200-1400 s.  The modest ceiling comes from the USZip / Zipcodes services
degrading under concurrent load.
"""

from benchmarks import harness
from benchmarks.harness import QUERY2_SQL, fanout_grid, near_balanced, run_central

NAME = None


def run(smoke: bool = False) -> dict:
    return {"cells": fanout_grid(QUERY2_SQL), "central": run_central(QUERY2_SQL).elapsed}


def report(payload: dict) -> None:
    harness.grid_report(payload, "Fig 17", "Query2")


def check(payload: dict) -> None:
    cells, central = payload["cells"], payload["central"]
    best = min(cells, key=cells.get)
    best_time = cells[best]
    assert 1100.0 < best_time < 1400.0  # paper's low region 1200-1400 s
    assert near_balanced(best, slack=1)  # {4,3}
    assert 1.7 < central / best_time < 2.3  # "speed up of nearly 2"
    assert cells[(1, 1)] > 1.6 * best_time
    largest = max(cells, key=lambda c: c[0] + c[0] * c[1])
    assert cells[largest] > 1.02 * best_time


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
