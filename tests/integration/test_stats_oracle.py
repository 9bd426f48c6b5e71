"""Tree and fault statistics are counters, checked against the trace.

The pools count ``QueryResult.tree`` and ``fault_stats`` where they spawn,
adapt, fail, redeliver, respawn and trip the breaker.  With a recorder
attached, the counters must equal the derivations in
:mod:`tests.stats_oracle` over the recorder's instants, and an untraced run
of the same query must count the same.  (Adaptation on a real-time kernel
reacts to wall-clock timing, so there the untraced comparison is made for
the manual trees only.)  An untraced query builds no span or instant at
all, and on ``ProcessKernel`` its workers ship none.
"""

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    AdaptationParams,
    AsyncioKernel,
    CacheConfig,
    FaultInjection,
    ProcessCosts,
    ProcessKernel,
    QueryEngine,
    QueryOptions,
    SimKernel,
    TraceRecorder,
    WSMED,
)
from repro.algebra.interpreter import ExecutionContext
from repro.obs.run import QueryRun
from repro.parallel.parallelizer import parallelize
from repro.parallel.placement import Placement
from repro.obs import spans as spans_module
from repro.util.errors import ReproError

from tests.helpers import forget, make_world, run_in_context
from tests.stats_oracle import fault_stats_from_trace, tree_stats_from_trace

QUERIES = {
    "q1-54": (QUERY1_SQL, QueryOptions(mode="parallel", fanouts=[5, 4])),
    "q2-43": (QUERY2_SQL, QueryOptions(mode="parallel", fanouts=[4, 3])),
    "q1-adaptive": (QUERY1_SQL, QueryOptions(mode="adaptive")),
    "q2-adaptive": (QUERY2_SQL, QueryOptions(mode="adaptive")),
    "q1-adaptive-drop": (
        QUERY1_SQL,
        QueryOptions(mode="adaptive", adaptation=AdaptationParams(drop_stage=True)),
    ),
}
KERNELS = {
    "sim": lambda: None,
    "asyncio": lambda: AsyncioKernel(time_scale=0.0005),
    "process": lambda: ProcessKernel(workers=1),
}


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _assert_counters_match_oracle(result) -> None:
    assert result.tree == tree_stats_from_trace(result.spans)
    assert result.fault_stats == fault_stats_from_trace(result.spans)


@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("query", QUERIES)
def test_tree_and_fault_counters_equal_the_oracle(wsmed, query, kernel_name) -> None:
    sql, options = QUERIES[query]
    kernel = KERNELS[kernel_name]()
    try:
        traced = wsmed.sql(sql, options=options.replace(kernel=kernel, obs=TraceRecorder()))
        untraced = wsmed.sql(sql, options=options.replace(kernel=kernel))
    finally:
        if kernel is not None:
            kernel.shutdown()
    _assert_counters_match_oracle(traced)
    assert traced.tree.processes_spawned > 0
    assert untraced.spans is None
    if kernel_name == "sim" or options.mode == "parallel":
        assert untraced.tree == traced.tree
        assert untraced.fault_stats == traced.fault_stats


@pytest.mark.parametrize("on_error", ["retry", "skip"])
def test_fault_counters_equal_the_oracle(wsmed, on_error) -> None:
    options = QueryOptions(
        mode="parallel",
        fanouts=[5, 4],
        on_error=on_error,
        faults=FaultInjection(call_failure_probability=0.05, crash_probability=0.02),
    )
    traced = wsmed.sql(QUERY1_SQL, options=options.replace(obs=TraceRecorder()))
    untraced = wsmed.sql(QUERY1_SQL, options=options)
    _assert_counters_match_oracle(traced)
    assert traced.fault_stats.failed_calls > 0 and traced.fault_stats.respawns > 0
    assert (untraced.tree, untraced.fault_stats) == (traced.tree, traced.fault_stats)


def _run_until_the_breaker_trips(recorder) -> QueryRun:
    """Query1 over a service that fails most calls, under ``skip``: the
    pool's breaker aborts the query, so its run is read from the context."""
    world = make_world()
    plan = parallelize(world.central_plan(QUERY1_SQL), world.functions, fanouts=[5, 4])
    costs = ProcessCosts().scaled(0.01)
    kernel = SimKernel()
    run = QueryRun(on_error="skip", faults=FaultInjection(call_failure_probability=0.7))
    if recorder is not None:
        run.obs = recorder
    ctx = ExecutionContext(
        kernel=kernel, broker=world.registry.bind(kernel), functions=world.functions, run=run
    )
    with pytest.raises(ReproError, match="circuit breaker open"):
        kernel.run(run_in_context(ctx, plan, costs))
    return run


def test_breaker_trip_counters_equal_the_oracle() -> None:
    traced = _run_until_the_breaker_trips(TraceRecorder())
    untraced = _run_until_the_breaker_trips(None)
    assert traced.fault_stats == fault_stats_from_trace(traced.obs.store)
    assert traced.tree == tree_stats_from_trace(traced.obs.store)
    assert traced.fault_stats.breaker_trips == 1
    assert (untraced.tree, untraced.fault_stats) == (traced.tree, traced.fault_stats)


# -- spans only on demand -------------------------------------------------------------


def _engine_warm_system() -> WSMED:
    """The ``engine_warm`` benchmark configuration."""
    system = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    system.import_all()
    return system


def test_untraced_warm_engine_query_builds_no_event(monkeypatch) -> None:
    built = []

    class CountedSpan(spans_module.Span):
        def __init__(self, *args, **kwargs) -> None:
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spans_module, "Span", CountedSpan)
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    engine = QueryEngine(_engine_warm_system())
    try:
        for _ in range(2):  # warm trees, and the memo holds every call
            engine.sql(QUERY1_SQL, options=options)
        built.clear()
        warm = engine.sql(QUERY1_SQL, options=options)
    finally:
        engine.close()
    assert warm.cache_stats.hits == 311 and warm.total_calls == 0
    assert len(built) == 0
    assert warm.spans is None


def test_untraced_worker_children_ship_no_events(monkeypatch) -> None:
    deltas = []
    on_message = Placement._on_message

    def spy(self, worker, message):
        if getattr(message, "run", None) is not None:
            deltas.append(message.run)
        on_message(self, worker, message)

    monkeypatch.setattr(Placement, "_on_message", spy)
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    with ProcessKernel(workers=1) as kernel:
        system = _engine_warm_system()
        engine = QueryEngine(system, kernel=kernel)
        try:
            engine.sql(QUERY1_SQL, options=options)
            # So that the warm query's worker children serve calls again.
            forget(engine.memo, {"GetAllStates", "GetPlacesWithin"}, {"PF1"})
            deltas.clear()
            warm = engine.sql(QUERY1_SQL, options=options)
        finally:
            engine.close()
    assert len(warm.rows) == 360
    assert deltas, "counter deltas still ride the call-ending messages"
    spans = [delta[0] for delta in deltas]
    assert not any(spans)
    assert warm.spans is None
