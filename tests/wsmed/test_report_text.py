"""``render_report`` and ``render_summary`` render a result's counters
directly.  Their text is pinned byte for byte for Query1 under the manual
and adaptive trees, a cached and batched run, a fault-injection run, a
drop-stage run and a warm query answered by a sharing engine's call memo
(whole plan-function bags: no dispatch, no message).
"""

import pytest

from repro import (
    QUERY1_SQL,
    AdaptationParams,
    CacheConfig,
    FaultInjection,
    ProcessCosts,
    QueryEngine,
    QueryOptions,
    WSMED,
)
from repro.render import render_report, render_summary

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])

OPTIONS = {
    "parallel": PARALLEL,
    "adaptive": QueryOptions(mode="adaptive"),
    "cached": PARALLEL.replace(
        cache=CacheConfig(enabled=True), process_costs=ProcessCosts(batch_size=4)
    ),
    "faults": PARALLEL.replace(
        on_error="retry",
        faults=FaultInjection(call_failure_probability=0.05, crash_probability=0.01),
    ),
    "adaptive_drop": QueryOptions(
        mode="adaptive", adaptation=AdaptationParams(drop_stage=True)
    ),
}

EXPECTED = {
    "parallel": (
        "calls: 311 web service calls in 0.59 model seconds (parallel mode)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.014s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.033s, queue 0.000s\n"
        "process tree: 25 spawned, 0 dropped, avg fanouts ['5.0', '4.0']\n"
        "call cache: off\n"
        "messages: 1080 (310 down, 770 up); param batches: 0 carrying 0 tuples (+310 singles); result batches: 0 carrying 0 rows (+720 singles)\n"
        "faults: none",
        "360 rows in 0.59 model seconds (parallel mode, 311 web service calls)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.014s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.033s, queue 0.000s\n"
        "  process tree: 25 spawned, 0 dropped, avg fanouts ['5.0', '4.0']",
    ),
    "adaptive": (
        "calls: 311 web service calls in 0.69 model seconds (adaptive mode)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.032s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.044s, queue 0.000s\n"
        "process tree: 56 spawned, 0 dropped, avg fanouts ['8.0', '6.0']\n"
        "call cache: off\n"
        "messages: 1080 (310 down, 770 up); param batches: 0 carrying 0 tuples (+310 singles); result batches: 0 carrying 0 rows (+720 singles)\n"
        "faults: none",
        "360 rows in 0.69 model seconds (adaptive mode, 311 web service calls)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.032s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.044s, queue 0.000s\n"
        "  process tree: 56 spawned, 0 dropped, avg fanouts ['8.0', '6.0']",
    ),
    "cached": (
        "calls: 311 web service calls in 1.98 model seconds (parallel mode)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.009s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.021s, queue 0.000s\n"
        "process tree: 25 spawned, 0 dropped, avg fanouts ['5.0', '4.0']\n"
        "call cache: 0 hits, 311 misses, 0 collapsed, 0 evicted, 0 expired (0% hit rate, 0 calls avoided)\n"
        "messages: 234 (117 down, 117 up); param batches: 117 carrying 310 tuples (+0 singles); result batches: 117 carrying 720 rows (+0 singles); flushes: size=12, stream_end=105\n"
        "faults: none",
        "360 rows in 1.98 model seconds (parallel mode, 311 web service calls)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.009s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.021s, queue 0.000s\n"
        "  process tree: 25 spawned, 0 dropped, avg fanouts ['5.0', '4.0']\n"
        "  call cache: 0 hits, 311 misses, 0 collapsed, 0 evicted, 0 expired (0% hit rate, 0 calls avoided)\n"
        "  messages: 234 (117 down, 117 up); param batches: 117 carrying 310 tuples (+0 singles); result batches: 117 carrying 720 rows (+0 singles); flushes: size=12, stream_end=105",
    ),
    "faults": (
        "calls: 311 web service calls in 0.60 model seconds (parallel mode)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.015s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.031s, queue 0.000s\n"
        "process tree: 26 spawned, 0 dropped, avg fanouts ['5.0', '4.2']\n"
        "call cache: off\n"
        "messages: 1067 (323 down, 744 up); param batches: 0 carrying 0 tuples (+323 singles); result batches: 0 carrying 0 rows (+720 singles)\n"
        "faults: 13 failed calls, 13 redelivered, 0 skipped, 1 children respawned, 0 breaker trips",
        "360 rows in 0.60 model seconds (parallel mode, 311 web service calls)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.015s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.031s, queue 0.000s\n"
        "  process tree: 26 spawned, 0 dropped, avg fanouts ['5.0', '4.2']\n"
        "  faults: 13 failed calls, 13 redelivered, 0 skipped, 1 children respawned, 0 breaker trips",
    ),
    "adaptive_drop": (
        "calls: 311 web service calls in 0.60 model seconds (adaptive mode)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.016s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.049s, queue 0.000s\n"
        "process tree: 86 spawned, 17 dropped, avg fanouts ['8.0', '7.6']\n"
        "call cache: off\n"
        "messages: 1080 (310 down, 770 up); param batches: 0 carrying 0 tuples (+310 singles); result batches: 0 carrying 0 rows (+720 singles)\n"
        "faults: none",
        "360 rows in 0.60 model seconds (adaptive mode, 311 web service calls)\n"
        "  GetAllStates: 1 calls, mean 0.023s, queue 0.000s\n"
        "  GetPlaceList: 260 calls, mean 0.016s, queue 0.000s\n"
        "  GetPlacesWithin: 50 calls, mean 0.049s, queue 0.000s\n"
        "  process tree: 86 spawned, 17 dropped, avg fanouts ['8.0', '7.6']",
    ),
    "shared_warm": (
        "calls: 0 web service calls in 0.00 model seconds (parallel mode)\n"
        "process tree: no child processes spawned (parallel plan on a warm or unused tree)\n"
        "call cache: 311 hits (50 plan-function bags), 0 misses, 0 collapsed, 0 evicted, 0 expired (100% hit rate, 311 calls avoided)\n"
        "batching: no inter-process messages (parallel plan; no tuple was dispatched)\n"
        "faults: none",
        "360 rows in 0.00 model seconds (parallel mode, 0 web service calls)\n"
        "  call cache: 311 hits (50 plan-function bags), 0 misses, 0 collapsed, 0 evicted, 0 expired (100% hit rate, 311 calls avoided)",
    ),
}


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _result(wsmed, case):
    if case != "shared_warm":
        return wsmed.sql(QUERY1_SQL, options=OPTIONS[case])
    engine = QueryEngine(wsmed, share=True)
    try:
        engine.sql(QUERY1_SQL, options=PARALLEL)
        return engine.sql(QUERY1_SQL, options=PARALLEL)
    finally:
        engine.close()


@pytest.mark.parametrize("case", EXPECTED)
def test_report_and_summary_text_is_pinned(wsmed, case) -> None:
    result = _result(wsmed, case)
    assert (render_report(result), render_summary(result)) == EXPECTED[case]
