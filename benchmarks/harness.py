"""Shared benchmark infrastructure: paper reference values, runners, entry points.

Everything runs on the simulated kernel, so "seconds" below are model
seconds comparable to the paper's wall-clock measurements, while the
benchmarks themselves finish in wall milliseconds to minutes.

A bench module declares ``NAME`` (its ``BENCH_<NAME>.json`` record, or
``None``), ``run(smoke)`` returning a payload, ``report(payload)`` printing
it and ``check(payload)`` asserting its claims, then ends with::

    test_bench, main = harness.entry_points(__name__)

    if __name__ == "__main__":
        main()

so ``python -m benchmarks.<bench> [--smoke]``, ``pytest benchmarks/<bench>.py``
and ``python -m benchmarks.report`` all report and check the same claims.
Only a full run writes the record; a smoke run (and the pytest test, which
runs smoke) checks the claims and writes nothing, so the tracked records
stay full runs.  Payload keys starting with ``_`` (row bags, results) are
for ``check`` and stay out of the record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from repro import WSMED, AdaptationParams, QueryResult, QueryOptions
from repro import QUERY1_SQL, QUERY2_SQL  # noqa: F401  (re-exported for benches)

# Reference values from the paper (Sec. V).
PAPER = {
    "query1_central": 244.8,
    "query1_best": 56.4,
    "query1_best_fanouts": (5, 4),
    "query1_speedup": 4.3,
    "query2_central": 2412.95,
    "query2_best": 1243.89,
    "query2_best_fanouts": (4, 3),
    "query2_speedup": 2.0,
    "query1_calls": 311,  # "more than 300 web service calls"
    "query2_calls": 5001,  # "more than 5000 web service calls"
    "query1_rows": 360,
    "aff_best_ratio_query1": 0.80,  # p=2, no drop (Sec. V.A)
    "aff_best_ratio_query2": 0.96,
}

MAX_PROCESSES = 60  # the paper explores trees of up to 60 query processes
MAX_FANOUT = 7


@lru_cache(maxsize=4)
def wsmed(profile: str = "paper") -> WSMED:
    system = WSMED(profile=profile)
    system.import_all()
    return system


def run_central(sql: str, profile: str = "paper") -> QueryResult:
    return wsmed(profile).sql(sql, options=QueryOptions(mode="central"))


def run_parallel(
    sql: str, fanouts: tuple[int, ...], profile: str = "paper"
) -> QueryResult:
    return wsmed(profile).sql(
        sql,
        options=QueryOptions(mode="parallel", fanouts=list(fanouts)),
    )


def run_adaptive(
    sql: str, p: int, drop_stage: bool, profile: str = "paper"
) -> QueryResult:
    return wsmed(profile).sql(
        sql,
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=p, drop_stage=drop_stage),
        ),
    )


def fanout_grid(
    sql: str,
    *,
    profile: str = "paper",
    max_fanout: int = MAX_FANOUT,
    max_processes: int = MAX_PROCESSES,
) -> dict[tuple[int, int], float]:
    """Execution time for every fanout vector within the paper's bounds."""
    cells: dict[tuple[int, int], float] = {}
    for fo1 in range(1, max_fanout + 1):
        for fo2 in range(1, max_fanout + 1):
            if fo1 + fo1 * fo2 > max_processes:
                continue
            cells[(fo1, fo2)] = run_parallel(sql, (fo1, fo2), profile).elapsed
    return cells


def format_grid(cells: dict[tuple[int, int], float], title: str) -> str:
    """Render a fanout grid as the table behind Figs 16/17."""
    fo1_values = sorted({fo1 for fo1, _ in cells})
    fo2_values = sorted({fo2 for _, fo2 in cells})
    lines = [title, "fo1\\fo2 " + "".join(f"{fo2:>8}" for fo2 in fo2_values)]
    for fo1 in fo1_values:
        row = [f"{fo1:>7} "]
        for fo2 in fo2_values:
            value = cells.get((fo1, fo2))
            row.append(f"{value:8.1f}" if value is not None else "       -")
        lines.append("".join(row))
    best = min(cells, key=cells.get)
    lines.append(
        f"best: {{{best[0]},{best[1]}}} = {cells[best]:.1f} s "
        f"(N = {best[0] + best[0] * best[1]} processes)"
    )
    return "\n".join(lines)


def grid_report(payload: dict, figure: str, query: str) -> None:
    """Print a Fig 16/17 payload (``cells``, ``central``) against the paper."""
    cells, central = payload["cells"], payload["central"]
    best = min(cells, key=cells.get)
    experiment, key = figure.lower().replace(" ", ""), query.lower()
    print(format_grid(cells, f"{figure} — {query} execution time (model s)"))
    print(comparisons(experiment, [
        ("central time (s)", PAPER[f"{key}_central"], round(central, 1)),
        ("best time (s)", PAPER[f"{key}_best"], round(cells[best], 1)),
        ("best fanout vector", str(PAPER[f"{key}_best_fanouts"]), str(best)),
        ("speed-up over central", PAPER[f"{key}_speedup"], round(central / cells[best], 2)),
    ]))


def comparisons(experiment: str, rows) -> str:
    """Paper-vs-measured lines of EXPERIMENTS.md, one per ``(metric, paper, measured)``."""
    return "\n".join(
        f"{experiment:<12} {metric:<38} paper={paper!s:<12} measured={measured!s}"
        for metric, paper, measured in rows
    )


def near_balanced(cell: tuple[int, int], slack: int = 2) -> bool:
    """The paper's observation: the optimum is close to a balanced tree."""
    return abs(cell[0] - cell[1]) <= slack


# -- entry points --------------------------------------------------------------------


def save_bench_json(name: str, payload: dict) -> Path:
    """Write one bench's machine-readable results and return the path.

    Results land in ``BENCH_<name>.json`` at the repository root — the
    one tracked copy, so the perf trajectory can be diffed across PRs —
    or under ``$BENCH_RESULTS_DIR`` (tests, scratch runs).
    """
    override = os.environ.get("BENCH_RESULTS_DIR")
    directory = Path(override) if override else Path(__file__).parent.parent
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def finish(bench, payload, smoke: bool) -> None:
    """Report a bench's payload, record a full run, then check its claims."""
    bench.report(payload)
    if bench.NAME is not None and not smoke:
        record = {key: value for key, value in payload.items() if not key.startswith("_")}
        save_bench_json(bench.NAME, record)
    bench.check(payload)


def entry_points(module_name: str):
    """The pytest test and the ``main`` of the bench module ``module_name``."""
    bench = sys.modules[module_name]

    def test_bench(benchmark) -> None:
        payload = benchmark.pedantic(
            bench.run, kwargs={"smoke": True}, rounds=1, iterations=1
        )
        print()
        finish(bench, payload, smoke=True)

    def main(argv: list[str] | None = None) -> None:
        parser = argparse.ArgumentParser(description=bench.__doc__.splitlines()[0])
        parser.add_argument(
            "--smoke",
            action="store_true",
            help="the CI size: the same claims checked on a smaller run, no record written",
        )
        smoke = parser.parse_args(argv).smoke
        finish(bench, bench.run(smoke=smoke), smoke)

    return test_bench, main
