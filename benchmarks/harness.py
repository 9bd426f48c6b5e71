"""Shared benchmark infrastructure.

Everything runs under the *paper* cost profile on the simulated kernel, so
"seconds" below are model seconds comparable to the paper's wall-clock
measurements, while the benchmarks themselves finish in wall milliseconds
to minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass
class Comparison:
    """One paper-vs-measured line of EXPERIMENTS.md."""

    experiment: str
    metric: str
    paper: float | str
    measured: float | str

    def line(self) -> str:
        return (
            f"{self.experiment:<12} {self.metric:<38} "
            f"paper={self.paper!s:<12} measured={self.measured!s}"
        )


def report(comparisons: list[Comparison]) -> str:
    return "\n".join(comparison.line() for comparison in comparisons)


def near_balanced(cell: tuple[int, int], slack: int = 2) -> bool:
    """The paper's observation: the optimum is close to a balanced tree."""
    return abs(cell[0] - cell[1]) <= slack
