"""Naive central plans — the baselines of the paper's Secs. I and II.

Paper claims regenerated here:

* Query2's naive plan "makes 5000 calls sequentially and takes nearly
  2400 seconds" (Sec. I) — measured 2412.95 s in Sec. V.
* Query1's naive plan "invokes more than 300 web service calls" and takes
  244.8 s (Sec. V).
"""

from benchmarks import harness
from benchmarks.harness import (
    PAPER,
    QUERY1_SQL,
    QUERY2_SQL,
    comparisons,
    run_central,
)

NAME = None


def run(smoke: bool = False) -> dict:
    return {"query1": run_central(QUERY1_SQL), "query2": run_central(QUERY2_SQL)}


def report(payload: dict) -> None:
    query1, query2 = payload["query1"], payload["query2"]
    print(comparisons("central", [
        ("Query1 time (s)", PAPER["query1_central"], round(query1.elapsed, 1)),
        ("Query1 web service calls", PAPER["query1_calls"], query1.total_calls),
        ("Query1 result rows", PAPER["query1_rows"], len(query1)),
        ("Query2 time (s)", PAPER["query2_central"], round(query2.elapsed, 1)),
        ("Query2 web service calls", PAPER["query2_calls"], query2.total_calls),
        ("Query2 answer", "<CO, 80840>", str(query2.rows)),
    ]))


def check(payload: dict) -> None:
    query1, query2 = payload["query1"], payload["query2"]
    assert query2.rows == [("CO", "80840")]
    assert query2.total_calls == 5001
    assert query1.total_calls == 311
    assert len(query1) == 360
    # Within 5% of the paper's wall-clock numbers.
    assert abs(query1.elapsed - PAPER["query1_central"]) < 0.05 * PAPER["query1_central"]
    assert abs(query2.elapsed - PAPER["query2_central"]) < 0.05 * PAPER["query2_central"]


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
