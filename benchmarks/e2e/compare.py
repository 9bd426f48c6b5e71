"""``--compare A.json B.json``: B against A, per workload and end-to-end metric.

Prints both medians, the ratio B/A (its base is A's median), the metric's
bound and a verdict: ``ok``, ``regressed`` (B's median is worse than A's by
more than the bound) or ``unresolved`` (a side's own run-to-run spread —
the distance between its quartiles as a share of its median — is wider
than the bound, and B's runs are not all better than all of A's).
"""

from __future__ import annotations

import json
import statistics

from .metrics import END_TO_END


def _values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        runs_a = json.load(handle)["runs"]
    with open(path_b) as handle:
        runs_b = json.load(handle)["runs"]
    print(
        f"{'workload':<18}{'metric':<18}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    )
    regressed = 0
    for workload in runs_a:
        if not runs_a[workload] or not runs_b.get(workload):
            print(f"{workload:<18}missing on one side")
            continue
        for metric, _, better, bound in END_TO_END:
            a, b = _values(runs_a[workload], metric), _values(runs_b[workload], metric)
            median_a, median_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (median_b - median_a) / median_a
            spread_a, spread_b = _spread(a), _spread(b)
            all_better = (
                max(b) < min(a) if better == "lower" else min(b) > max(a)
            )
            if worse_by > bound:
                verdict = "regressed"
                regressed += 1
            elif max(spread_a, spread_b) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:<18}{metric:<18}{median_a:>12.4f}{median_b:>12.4f}"
                f"{median_b / median_a:>8.3f}{bound:>7.2f}"
                f"{spread_a:>10.3f}{spread_b:>10.3f}  {verdict}"
            )
    return 1 if regressed else 0
