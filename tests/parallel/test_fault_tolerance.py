"""Pool-level fault tolerance: policies, injection, respawn, breaker.

Unit tests drive pools directly over controllable helping functions (a
flaky function that fails N times per key, a generator that emits a row
and then dies mid-call), so each failure path can be asserted precisely;
integration tests run the paper queries with deterministic fault
injection and compare against clean runs.
"""

from collections import Counter, deque
from dataclasses import replace

import pytest

from repro.algebra.expressions import ColExpr
from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AdaptationParams, ApplyNode, ParamNode, PlanFunction
from repro.fdb.functions import FunctionRegistry, helping_function
from repro.fdb.types import INTEGER, TupleType
from repro.fdb.values import Bag
from repro import QueryOptions
from repro.obs.run import QueryRun
from repro.obs.spans import TraceRecorder
from repro.parallel.costs import ProcessCosts
from repro.parallel.faults import FaultInjection
from repro.parallel.ff_applyp import ChildPool, _Child
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError, ReproError

from tests.helpers import QUERY1_SQL, make_world
from tests.parallel.helpers_parallel import FAST_COSTS, run_parallel


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def clean_q1(world):
    rows, _, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    return rows


def fault_costs(**kwargs):
    return ProcessCosts(**kwargs).scaled(0.01)


# The policy tests run under both kernels: the simulated one (virtual
# time, deterministic) and the asyncio one (real concurrency, scaled).
KERNELS = [SimKernel, lambda: AsyncioKernel(time_scale=0.001)]


# -- unit harness: an FF pool over a controllable helping function ------------------


def make_pool(
    kernel,
    costs,
    implementation,
    *,
    fanout=2,
    pool_class=ChildPool,
    params=None,
    on_error="fail",
):
    registry = FunctionRegistry()
    registry.register(
        helping_function(
            "probe",
            [("x", INTEGER)],
            TupleType((("y", INTEGER),)),
            implementation,
            documentation="Per-test behavior (flaky, leaky, or plain).",
        )
    )
    ctx = ExecutionContext(
        kernel=kernel,
        broker=None,
        functions=registry,
        run=QueryRun(obs=TraceRecorder(), on_error=on_error),
    )
    body = ApplyNode(
        child=ParamNode(schema=("x",)),
        function="probe",
        arguments=(ColExpr("x"),),
        out_columns=("y",),
    )
    plan_function = PlanFunction("PFX", ("x",), body)
    if params is not None:
        return pool_class(ctx, plan_function, costs, params), ctx
    return pool_class(ctx, plan_function, costs, fanout), ctx


def flaky(fail_plan):
    """Implementation failing the call for key ``x`` ``fail_plan[x]`` times.

    The budget dict is shared across all (in-process) children, so a
    redelivered row succeeds on whichever child runs it next.
    """
    remaining = dict(fail_plan)

    def implementation(x):
        if remaining.get(x, 0) > 0:
            remaining[x] -= 1
            raise ReproError(f"flaky call for x={x}")
        return [(x * 10,)]

    return implementation


def ident(x):
    return [(x * 10,)]


async def feed(pool, rows):
    async def source():
        for row in rows:
            yield row

    collected = []
    async for row in pool.run(source()):
        collected.append(row)
    return collected


def drive(kernel, pool, rows):
    async def main():
        out = await feed(pool, rows)
        await pool.close()
        return out

    return kernel.run(main())


def expected(xs):
    return sorted((x, x * 10) for x in xs)


# -- knob validation ----------------------------------------------------------------


def test_fault_policy_knob_validation() -> None:
    assert QueryOptions().on_error == "fail"
    with pytest.raises(PlanError, match="on_error"):
        QueryOptions(on_error="explode")
    with pytest.raises(PlanError, match="max_redeliveries"):
        ProcessCosts(max_redeliveries=-1)


def test_fault_injection_validation_and_determinism() -> None:
    with pytest.raises(PlanError, match="call_failure_probability"):
        FaultInjection(call_failure_probability=1.5)
    with pytest.raises(PlanError, match="crash_probability"):
        FaultInjection(crash_probability=-0.1)
    with pytest.raises(PlanError, match="service_fault_probability"):
        FaultInjection(service_fault_probability=1.0)
    assert not FaultInjection().active()
    assert FaultInjection(call_failure_probability=0.1).active()
    assert FaultInjection(crash_probability=0.1).active()

    def draws(injector, n=64):
        pattern = []
        for _ in range(n):
            try:
                injector.before_call()
                pattern.append(False)
            except ReproError:
                pattern.append(True)
        return pattern

    injection = FaultInjection(call_failure_probability=0.5, seed=7)
    # Same child name -> the same fault sequence; different child -> its own.
    assert draws(injection.injector_for("P1")) == draws(injection.injector_for("P1"))
    assert draws(injection.injector_for("P1")) != draws(injection.injector_for("P2"))


# -- the three policies, driven directly --------------------------------------------


@pytest.mark.parametrize("make_kernel", KERNELS)
def test_retry_redelivers_failed_row(make_kernel) -> None:
    kernel = make_kernel()
    pool, ctx = make_pool(kernel, fault_costs(), flaky({3: 1}), on_error="retry")
    out = drive(kernel, pool, [(x,) for x in range(1, 7)])
    # Complete and duplicate-free despite the failure.
    assert sorted(out) == expected(range(1, 7))
    assert ctx.run.fault_stats.failed_calls == 1
    failures = ctx.run.obs.store.find("call_failed")
    assert len(failures) == 1
    assert failures[0].attrs["policy"] == "retry"
    redelivers = ctx.run.obs.store.find("redeliver")
    assert len(redelivers) == 1
    assert redelivers[0].attrs["attempt"] == 1
    assert redelivers[0].attrs["row"] == repr((3,))
    stats = ctx.run.fault_stats
    assert stats.failed_calls == 1
    assert stats.redeliveries == 1
    assert stats.skipped_rows == 0


def test_retry_budget_exhausted_fails_the_query() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(
        kernel, fault_costs(max_redeliveries=2), flaky({3: 99}), on_error="retry"
    )
    with pytest.raises(ReproError, match="max_redeliveries=2"):
        drive(kernel, pool, [(x,) for x in range(1, 7)])
    # Initial delivery + 2 redeliveries, each failing.
    assert len(ctx.run.obs.store.find("call_failed")) == 3
    assert len(ctx.run.obs.store.find("redeliver")) == 2


@pytest.mark.parametrize("make_kernel", KERNELS)
def test_skip_drops_failed_row_and_counts_it(make_kernel) -> None:
    kernel = make_kernel()
    pool, ctx = make_pool(kernel, fault_costs(), flaky({3: 99}), on_error="skip")
    out = drive(kernel, pool, [(x,) for x in range(1, 7)])
    assert sorted(out) == expected([1, 2, 4, 5, 6])
    assert ctx.run.fault_stats.skipped_rows == 1
    assert len(ctx.run.obs.store.find("redeliver")) == 0
    stats = ctx.run.fault_stats
    assert stats.failed_calls == 1
    assert stats.skipped_rows == 1


def test_fail_policy_aborts_without_fault_events() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, fault_costs(), flaky({3: 1}))
    with pytest.raises(ReproError, match="failed"):
        drive(kernel, pool, [(x,) for x in range(1, 7)])
    # The seed protocol: the child error becomes the query error directly,
    # with none of the fault-tolerance machinery in the trace.
    for kind in ("call_failed", "redeliver", "respawn", "breaker_open"):
        assert len(ctx.run.obs.store.find(kind)) == 0


def test_breaker_escalates_a_mostly_dead_pool(monkeypatch) -> None:
    monkeypatch.setattr("repro.parallel.ff_applyp.BREAKER_MIN_CALLS", 5)
    kernel = SimKernel()
    pool, ctx = make_pool(
        kernel, fault_costs(), flaky({x: 99 for x in range(20)}), on_error="skip"
    )
    with pytest.raises(ReproError, match="circuit breaker open"):
        drive(kernel, pool, [(x,) for x in range(20)])
    trips = ctx.run.obs.store.find("breaker_open")
    assert len(trips) == 1
    assert trips[0].attrs["failed"] == 5
    assert trips[0].attrs["resolved"] == 5
    assert ctx.run.fault_stats.breaker_trips == 1


# -- satellite regressions ----------------------------------------------------------


def test_failed_child_is_evicted_before_the_error_propagates() -> None:
    """A ChildError must remove the dead child from the dispatch structures.

    Without the eviction the persistent pool keeps the dead child in
    ``children``/``_idle``, and the next invocation dispatches a tuple to a
    process nobody runs — deadlocking the query instead of running it.
    """
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, fault_costs(), flaky({2: 1}), fanout=2)

    async def main():
        with pytest.raises(ReproError, match="failed"):
            await feed(pool, [(1,), (2,), (3,), (4,)])
        assert len(pool.children) == 1
        assert len(pool._by_name) == 1
        assert all(child in pool.children for child in pool._idle)
        out = await feed(pool, [(7,), (8,), (9,)])
        await pool.close()
        return out

    assert sorted(kernel.run(main())) == expected([7, 8, 9])


def test_reused_pool_does_not_replay_a_failed_invocation() -> None:
    """Per-invocation state must reset on the error exit of ``run()``.

    A nested pool persists across outer parameter tuples; when one
    invocation dies with tuples still pending/in flight, the next
    invocation must see only its own stream — not stale pending rows, a
    stale idle deque, or results of the failed run's calls.
    """
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, fault_costs(), ident, fanout=1)

    async def bad_source():
        for row in [(1,), (2,), (3,), (4,), (5,)]:
            yield row
        raise ReproError("input stream failed")

    async def main():
        stale = []
        with pytest.raises(ReproError, match="input stream failed"):
            async for row in pool.run(bad_source()):
                stale.append(row)
        out = await feed(pool, [(8,), (9,)])
        await pool.close()
        return out

    assert sorted(kernel.run(main())) == expected([8, 9])


def test_child_slots_compare_by_identity() -> None:
    """Two distinct pool slots must never be equal (``eq=False``).

    ``_idle.remove`` and ``child in self.children`` compare elements; with
    dataclass value equality two just-spawned children (same outstanding
    count, empty inflight) holding the *same* shared objects could alias,
    and removing one slot would silently remove the other.
    """
    endpoints, handle = object(), object()
    a = _Child(endpoints=endpoints, handle=handle)
    b = _Child(endpoints=endpoints, handle=handle)
    assert a == a
    assert a != b
    lineup = deque([a, b])
    lineup.remove(b)
    assert list(lineup) == [a]
    assert len({a, b}) == 2  # usable in sets/dicts, hashed by identity


def test_cancelled_child_is_respawned() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, fault_costs(), ident, fanout=2, on_error="retry")

    async def main():
        first = await feed(pool, [(1,), (2,)])
        pool.children[0].handle.cancel()
        await kernel.sleep(1.0)  # let the death watcher report
        second = await feed(pool, [(3,), (4,), (5,)])
        assert ctx.run.fault_stats.respawns == 1
        assert len(pool.children) == 2
        await pool.close()
        return first + second

    out = kernel.run(main())
    assert sorted(out) == expected([1, 2, 3, 4, 5])
    respawns = ctx.run.obs.store.find("respawn")
    assert len(respawns) == 1
    assert respawns[0].attrs["lost_rows"] == 0
    assert "Cancelled" in respawns[0].attrs["reason"]


# -- mid-batch errors: trailing rows replay, then the child error -------------------


def leaky(x):
    """Yields one row, then dies for ``x == 3`` — a call failing mid-stream."""

    def gen():
        yield (x * 10,)
        if x == 3:
            raise ReproError(f"leak at x={x}")
        yield (x * 10 + 1,)

    return gen()


def test_mid_batch_error_replays_trailing_rows_then_fails() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, fault_costs(batch_size=3), leaky, fanout=1)

    async def main():
        collected = []
        with pytest.raises(ReproError, match="leak at x=3"):
            async for row in pool.run(_source([(1,), (2,), (3,)])):
                collected.append(row)
        return collected

    collected = kernel.run(main())
    # Calls 1 and 2 completed inside the batch; call 3 produced one row
    # before erroring.  The batch replay must surface all of them, in
    # order, before the FIFO-ordered ChildError aborts the invocation.
    assert collected == [(1, 10), (1, 11), (2, 20), (2, 21), (3, 30)]
    assert pool.ctx.run.message_stats.result_batches == 1
    # The failed child was evicted on the way out.
    assert pool.children == []
    assert pool._by_name == {}


def test_mid_batch_error_of_an_abandoned_invocation_is_not_replayed() -> None:
    """The second batch fails after the consumer walked away: neither its
    partial row nor its error belongs to the next invocation."""
    kernel = SimKernel()
    costs = fault_costs(batch_size=2, prefetch=2)
    pool, ctx = make_pool(kernel, costs, leaky, fanout=1)

    async def main():
        abandoned = pool.run(_source([(1,), (2,), (4,), (3,)]))
        first = await abandoned.__anext__()
        await abandoned.aclose()
        out = await feed(pool, [(7,), (8,)])
        await pool.close()
        return first, out

    first, out = kernel.run(main())
    assert first == (1, 10)
    assert sorted(out) == [(7, 70), (7, 71), (8, 80), (8, 81)]
    assert ctx.run.fault_stats.respawns == 1


def _source(rows):
    async def source():
        for row in rows:
            yield row

    return source()


@pytest.mark.parametrize("make_kernel", KERNELS)
def test_batched_retry_recovers_without_duplicates(make_kernel) -> None:
    kernel = make_kernel()
    costs = fault_costs(batch_size=2)
    pool, ctx = make_pool(kernel, costs, flaky({2: 1}), fanout=2, on_error="retry")
    out = drive(kernel, pool, [(x,) for x in range(1, 7)])
    # A failed call inside a batch ships no rows; only the redelivery's
    # rows arrive, so nothing is duplicated.
    assert sorted(out) == expected(range(1, 7))
    assert len(ctx.run.obs.store.find("call_failed")) == 1
    assert len(ctx.run.obs.store.find("redeliver")) == 1


# -- fault injection through the full query stack -----------------------------------


def test_injected_failures_with_retry_recover_the_full_result(world, clean_q1) -> None:
    rows, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        fanouts=[5, 4],
        costs=replace(FAST_COSTS, max_redeliveries=6),
        on_error="retry",
        faults=FaultInjection(call_failure_probability=0.15),
    )
    # Complete and duplicate-free despite a 15% injected failure rate.
    assert Bag(rows) == Bag(clean_q1)
    assert len(ctx.run.obs.store.find("call_failed")) > 0
    assert len(ctx.run.obs.store.find("redeliver")) > 0
    stats = ctx.run.fault_stats
    assert stats.failed_calls == len(ctx.run.obs.store.find("call_failed"))
    assert stats.redeliveries == len(ctx.run.obs.store.find("redeliver"))


def test_injected_failures_with_skip_drop_rows(world, clean_q1) -> None:
    rows, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        fanouts=[5, 4],
        on_error="skip",
        faults=FaultInjection(call_failure_probability=0.05),
    )
    # Every produced row is genuine (a sub-multiset of the clean result)...
    assert not Counter(rows) - Counter(clean_q1)
    # ...but skipped calls lost some.
    assert len(rows) < len(clean_q1)
    stats = ctx.run.fault_stats
    assert stats.skipped_rows > 0
    assert stats.redeliveries == 0


def test_injected_crash_respawns_and_recovers(world, clean_q1) -> None:
    rows, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        fanouts=[5, 4],
        costs=replace(FAST_COSTS, max_redeliveries=6),
        on_error="retry",
        faults=FaultInjection(crash_probability=0.01),
    )
    assert Bag(rows) == Bag(clean_q1)
    assert len(ctx.run.obs.store.find("respawn")) >= 1
    stats = ctx.run.fault_stats
    assert stats.respawns == len(ctx.run.obs.store.find("respawn"))


def test_default_run_emits_no_fault_events(world) -> None:
    """Defaults reproduce the seed protocol: no fault machinery visible."""
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    for kind in ("call_failed", "redeliver", "respawn", "breaker_open", "call_fault"):
        assert len(ctx.run.obs.store.find(kind)) == 0


# -- adaptive pool: failed calls count toward cycles, separately --------------------


def test_adaptive_cycles_count_failed_calls(world, clean_q1) -> None:
    clean_rows, _, _, clean_ctx = run_parallel(
        world, QUERY1_SQL, adaptation=AdaptationParams()
    )
    assert all(
        "failed" not in event.attrs for event in clean_ctx.run.obs.store.find("cycle")
    )
    rows, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        adaptation=AdaptationParams(),
        costs=replace(FAST_COSTS, max_redeliveries=6),
        on_error="retry",
        faults=FaultInjection(call_failure_probability=0.1),
    )
    assert Bag(rows) == Bag(clean_rows)
    cycles = ctx.run.obs.store.find("cycle")
    assert any(event.attrs.get("failed", 0) > 0 for event in cycles)


# -- injected service faults: the query's own stream ----------------------------


def _service_faults(seed: int | None = None, probability: float = 0.1) -> QueryOptions:
    faults = FaultInjection(service_fault_probability=probability)
    if seed is not None:
        faults = replace(faults, seed=seed)
    return QueryOptions(mode="parallel", fanouts=[5, 4], retries=10, faults=faults)


def test_the_injection_seed_picks_which_service_calls_fault() -> None:
    from repro import WSMED

    system = WSMED(profile="fast")
    system.import_all()
    runs = [system.sql(QUERY1_SQL, options=_service_faults(seed)) for seed in (1, 2)]
    faulted = [{name: stats.faults for name, stats in run.call_stats.items()} for run in runs]
    assert all(sum(counts.values()) for counts in faulted)
    assert faulted[0] != faulted[1]
    assert runs[0].elapsed != runs[1].elapsed


def test_a_faulty_query_leaves_the_next_querys_timing_alone() -> None:
    """Service faults draw from the query's stream, not the broker's
    jitter stream: on a resident engine, a clean query after one with
    injected faults takes the model time it takes after a clean one."""
    from repro import WSMED, QueryEngine

    system = WSMED(profile="fast")
    system.import_all()
    clean = QueryOptions(mode="parallel", fanouts=[5, 4])
    elapsed = []
    for first in (clean, _service_faults()):
        engine = QueryEngine(system)
        try:
            engine.sql(QUERY1_SQL, options=first)
            elapsed.append(engine.sql(QUERY1_SQL, options=clean).elapsed)
        finally:
            engine.close()
    assert elapsed[0] == pytest.approx(elapsed[1], rel=1e-9)
