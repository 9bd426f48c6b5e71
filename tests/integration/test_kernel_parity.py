"""One query, two kernels, the same statistics.

Every process of a query counts into the query's run where the event
happens; a child inside an OS worker counts into a worker-local run that
rides its call-ending messages back.  So a ``ProcessKernel`` query must
report exactly what the ``SimKernel`` reports for the same tree —
including the pools nested inside worker children, which no coordinator
object can see.
"""

from collections import Counter
from dataclasses import asdict

import pytest

from repro import (
    QUERY1_SQL,
    CacheConfig,
    ProcessCosts,
    ProcessKernel,
    QueryEngine,
    QueryOptions,
    TraceRecorder,
    WSMED,
)

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def _system(engine_warm: bool) -> WSMED:
    if engine_warm:  # the engine_warm benchmark configuration
        system = WSMED(
            profile="fast",
            process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
            cache=CacheConfig(enabled=True),
        )
    else:
        system = WSMED(profile="fast")
    system.import_all()
    return system


def _statistics(result) -> dict:
    return {
        "message_stats": result.message_stats,
        "cache_stats": None if result.cache_stats is None else asdict(result.cache_stats),
        "tree": result.tree,
        "fault_stats": result.fault_stats,
        "total_calls": result.total_calls,
        "instants": Counter(span.name for span in result.spans if span.instant),
    }


def _cold_then_warm(engine: QueryEngine) -> list[dict]:
    try:
        return [
            _statistics(engine.sql(QUERY1_SQL, options=Q1_PARALLEL.replace(obs=TraceRecorder())))
            for _ in range(2)
        ]
    finally:
        engine.close()


@pytest.mark.parametrize("engine_warm", [False, True], ids=["plain", "engine_warm"])
def test_query1_statistics_match_across_kernels(engine_warm) -> None:
    sim = _cold_then_warm(QueryEngine(_system(engine_warm)))
    process = _cold_then_warm(QueryEngine(_system(engine_warm), kernel=ProcessKernel(workers=1)))
    for sim_run, process_run in zip(sim, process):
        for name, value in sim_run.items():
            assert process_run[name] == value, name
    cold, warm = sim
    # A memoizing engine answers every warm tuple from its plan-function
    # bags: no dispatch, on either kernel.
    assert warm["message_stats"].total_messages == (0 if engine_warm else 1_080)
    assert cold["total_calls"] == 311
    if engine_warm:
        assert warm["cache_stats"]["hits"] == 311 and warm["total_calls"] == 0
