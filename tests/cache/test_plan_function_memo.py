"""Plan functions memoized, not just calls.

A plan function applied to a parameter tuple is a bag of rows over a
chain of memoized calls, so the FF/AFF pool stores the bag in the call
memo when the call ends (under ``(PlanSignature, row)``) and answers the
tuple from it from then on, without a message.  A bag lives only as
long as the earliest call entry beneath it; a fault, a redelivery, a LIMIT
that cut a call short or a call no memo answered keeps it out; and a
worker child, which has no memo, stores none.  With the cache off nothing
of this runs: the counts are the ones the seed protocol pins.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    QUERY1_SQL,
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
from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import ApplyNode, LimitNode, SingletonNode
from repro.cache import CallMemo, Footprint, PlanSignature
from repro.obs.run import QueryRun

from tests.helpers import make_world

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
Q1_ADAPTIVE = QueryOptions(mode="adaptive")
KERNELS = {
    "sim": lambda: None,
    "asyncio": lambda: AsyncioKernel(resident=True, time_scale=0.0005),
    "process": lambda: ProcessKernel(workers=1),
}


def _system(cache: bool = True) -> WSMED:
    """The ``engine_warm`` benchmark configuration."""
    system = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=cache),
    )
    system.import_all()
    return system


def _bags(engine: QueryEngine, plan_function: str) -> dict:
    """The memo's live plan-function bags of ``plan_function`` (PF1 is
    Query1's outer level, PF2 its GetPlaceList level): row -> (bag,
    calls, expires_at)."""
    bags = {}
    for (signature, *rest), (value, expires) in engine.memo.entries.items():
        if isinstance(signature, PlanSignature):
            if signature.definition.startswith(f"PlanFunction(name={plan_function!r},"):
                (row,), (rows, calls) = rest, value
                bags[row] = (Counter(rows), calls, expires)
    return bags


def _call_expiry(engine: QueryEngine, operation: str, first_argument) -> list:
    return [
        expires
        for key, (_, expires) in engine.memo.entries.items()
        if not isinstance(key[0], PlanSignature)
        and key[2] == operation
        and key[3][:2] == first_argument
    ]


@pytest.fixture(scope="module")
def reference():
    """Query1's rows and its PF1 bags, from a clean cold run."""
    engine = QueryEngine(_system())
    try:
        result = engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        return Counter(result.rows), {row: bag for row, (bag, _, _) in _bags(engine, "PF1").items()}
    finally:
        engine.close()


@pytest.mark.parametrize("options", [Q1_PARALLEL, Q1_ADAPTIVE], ids=["54", "adaptive"])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_a_warm_query_is_answered_from_bags_on_every_kernel(kernel, options) -> None:
    engine = QueryEngine(_system(), kernel=KERNELS[kernel]())
    try:
        cold = engine.sql(QUERY1_SQL, options=options)
        warm = engine.sql(QUERY1_SQL, options=options)
    finally:
        engine.close()
    assert cold.total_calls == 311 and cold.cache_stats.plan_hits == 0
    assert Counter(warm.rows) == Counter(cold.rows)
    assert warm.total_calls == 0 and warm.cache_stats.hits == 311
    assert warm.cache_stats.plan_hits == 50
    assert warm.message_stats.total_messages <= 100


def test_a_traced_bag_hit_is_one_instant_with_its_call_count() -> None:
    engine = QueryEngine(_system())
    try:
        engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        warm = engine.sql(QUERY1_SQL, options=Q1_PARALLEL.replace(obs=TraceRecorder()))
    finally:
        engine.close()
    hits = warm.spans.find("plan_hit")
    assert len(hits) == warm.cache_stats.plan_hits == 50
    assert sum(span.attrs["calls"] for span in hits) == 310
    assert {span.attrs["plan_function"] for span in hits} == {"PF1"}


def test_a_bag_expires_with_the_earliest_call_beneath_it() -> None:
    engine = QueryEngine(_system())
    options = Q1_PARALLEL.replace(cache=CacheConfig(enabled=True, ttl=5.0))
    try:
        cold = engine.sql(QUERY1_SQL, options=options)
        outer = _bags(engine, "PF1")
        inner = _bags(engine, "PF2")
        assert len(outer) == 50 and len(inner) == 260
        for (state,), (_, calls, expires) in outer.items():
            # GetPlacesWithin('Atlanta', state, ...) is the first call
            # beneath a PF1 bag, so its entry expires first.
            (first,) = _call_expiry(engine, "GetPlacesWithin", ("Atlanta", state))
            assert expires == first
        for (place,), (_, calls, expires) in inner.items():
            assert calls == 1
            assert [expires] == _call_expiry(engine, "GetPlaceList", (place, 100))
        # Past the earliest outer expiry, that state's bag is gone while
        # the GetPlaceList entries stored after it still answer.
        earliest = min(expires for _, _, expires in outer.values())
        kernel = engine.kernel

        async def until_the_earliest_expiry():
            await kernel.sleep(earliest - kernel.now())

        kernel.run(until_the_earliest_expiry())
        again = engine.sql(QUERY1_SQL, options=options)
    finally:
        engine.close()
    assert Counter(again.rows) == Counter(cold.rows)
    assert again.call_stats["GetPlacesWithin"].calls >= 1
    assert again.total_calls < 311
    assert again.cache_stats.expirations >= 2  # the bag and its first call


@pytest.mark.parametrize("policy", ["retry", "skip"])
def test_a_call_with_an_injected_fault_is_not_stored(policy, reference) -> None:
    rows, clean = reference
    engine = QueryEngine(_system())
    options = Q1_PARALLEL.replace(
        on_error=policy,
        faults=FaultInjection(call_failure_probability=0.1, seed=7),
        obs=TraceRecorder(),
    )
    try:
        faulty = engine.sql(QUERY1_SQL, options=options)
        stored = _bags(engine, "PF1")
    finally:
        engine.close()
    assert faulty.fault_stats.failed_calls > 0
    # A stored bag is whole: no failure beneath it cost it a row.
    assert stored and all(bag == clean[row] for row, (bag, _, _) in stored.items())
    assert len(stored) < 50
    if policy == "retry":
        assert Counter(faulty.rows) == rows
        redelivered = {span.attrs["row"] for span in faulty.spans.find("redeliver")}
        assert redelivered and not redelivered & {repr(row) for row in stored}


def test_a_limit_truncated_invocation_stores_only_whole_bags(reference) -> None:
    _, clean = reference
    engine = QueryEngine(_system())
    try:
        limited = engine.sql(QUERY1_SQL + " LIMIT 20", options=Q1_PARALLEL)
        stored = _bags(engine, "PF1")
    finally:
        engine.close()
    assert len(limited) == 20
    # The calls still in flight at the cut were dropped unstored; the
    # ones that ended before it hold their whole bag.
    assert len(stored) < 50
    assert all(bag == clean[row] for row, (bag, _, _) in stored.items())


def test_a_limit_that_cuts_a_plan_function_call_short_poisons_its_footprint() -> None:
    world = make_world()
    kernel = SimKernel()
    run = QueryRun(memo=CallMemo(kernel, CacheConfig(enabled=True)))
    ctx = ExecutionContext(
        kernel=kernel, broker=world.registry.bind(kernel), functions=world.functions, run=run
    )
    states = world.functions.resolve("GetAllStates").implementation.result_columns
    apply = ApplyNode(SingletonNode(), "GetAllStates", (), tuple(name for name, _ in states))
    for count, poisoned in ((100, False), (3, True)):
        ctx.footprint = Footprint()
        rows = kernel.run(compile_plan(LimitNode(apply, count)).rows(ctx))
        assert len(rows) == min(count, 50)
        assert (ctx.footprint.value is None) is poisoned
    assert run.cache_stats.hits == 1  # the second call was a memo hit


def test_worker_children_store_no_bag() -> None:
    """A worker child forwards its calls and holds no memo, so only the
    coordinator's pool stores — from the footprints the coordinator's
    memo reported back through the children."""
    sim = QueryEngine(_system())
    process = QueryEngine(_system(), kernel=ProcessKernel(workers=1))
    try:
        for engine in (sim, process):
            engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        inner = {name: len(_bags(engine, "PF2")) for name, engine in (("sim", sim), ("process", process))}
        outer = {name: _bags(engine, "PF1") for name, engine in (("sim", sim), ("process", process))}
    finally:
        sim.close()
        process.close()
    assert inner == {"sim": 260, "process": 0}
    assert len(outer["process"]) == 50
    assert {row: calls for row, (_, calls, _) in outer["process"].items()} == {
        row: calls for row, (_, calls, _) in outer["sim"].items()
    }


def test_cache_off_counts_are_the_seed_protocols() -> None:
    """Nothing of the plan-function memo runs with the cache off: a warm
    engine Query1 and the paper's one-shot trees cost exactly the kernel
    events and messages they cost before it existed."""
    engine = QueryEngine(_system(cache=False))
    try:
        for _ in range(2):
            engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        before = engine.kernel.events_processed
        warm = engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        events = engine.kernel.events_processed - before
    finally:
        engine.close()
    assert warm.cache_stats is None and warm.total_calls == 311
    assert (events, warm.message_stats.total_messages) == (2_919, 1_080)
    paper = WSMED(profile="paper")
    paper.import_all()
    for options, expected in ((Q1_PARALLEL, 3_299), (Q1_ADAPTIVE, 3_492)):
        kernel = SimKernel()
        result = paper.sql(QUERY1_SQL, options=options.replace(kernel=kernel))
        assert (kernel.events_processed, result.message_stats.total_messages) == (expected, 1_080)
