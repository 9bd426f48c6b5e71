"""Figs 14/15 and Sec. V prose — flat vs unbalanced vs balanced trees.

The paper compares, at similar process budgets, a *flat* tree (fanout
vector {fo1, 0}: both OWFs fused into one level-one plan function), an
*unbalanced* tree (fo1 != fo2) and a *balanced* tree (fo1 == fo2), and
concludes the best plan is "an almost balanced bushy tree".
"""

from benchmarks import harness
from benchmarks.harness import QUERY1_SQL, QUERY2_SQL, run_parallel

NAME = None

# Shape candidates at comparable process budgets (N ~= 20-30).
SHAPES = {
    "flat {24,0}": (24, 0),
    "flat {5,0}": (5, 0),
    "unbalanced {2,10}": (2, 10),
    "unbalanced {10,2}": (10, 2),
    "balanced {4,4}": (4, 4),
    "balanced {5,5}": (5, 5),
    "near-balanced {5,4}": (5, 4),
}


def run(smoke: bool = False) -> dict:
    return {
        query: {name: run_parallel(sql, fanouts).elapsed for name, fanouts in SHAPES.items()}
        for query, sql in (("Query1", QUERY1_SQL), ("Query2", QUERY2_SQL))
    }


def report(payload: dict) -> None:
    for query, times in payload.items():
        print(f"Tree shapes — {query}")
        for name, value in sorted(times.items(), key=lambda item: item[1]):
            print(f"  {name:<20} {value:8.1f} s")


def check(payload: dict) -> None:
    for times in payload.values():
        best_bushy = min(
            value for name, value in times.items() if "flat" not in name
        )
        # Flat trees lose to the best bushy tree: a flat level-one node
        # serializes its GetPlaceList calls behind GetPlacesWithin.
        assert min(times["flat {24,0}"], times["flat {5,0}"]) > best_bushy
        # The best shape is balanced or near-balanced.
        best_name = min(times, key=times.get)
        assert "balanced" in best_name
        # Strongly unbalanced trees at the same budget are worse.
        assert times["unbalanced {2,10}"] > best_bushy


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
