"""Micro-batched messaging: seed equivalence, triggers, and composition.

Unit tests drive a :class:`ChildPool` directly over an identity plan
function, so flush triggers and message accounting can be asserted
precisely; integration tests run the paper queries through the full stack
with batching enabled and compare against the central plan.
"""

import pytest

from repro import QueryOptions
from repro.algebra.expressions import ColExpr
from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AdaptationParams, ApplyNode, ParamNode, PlanFunction
from repro.fdb.functions import FunctionRegistry, helping_function
from repro.fdb.types import INTEGER, TupleType
from repro.fdb.values import Bag
from repro.obs.run import QueryRun
from repro.obs.spans import TraceRecorder
from repro.parallel.aff_applyp import AFFPool
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


@pytest.fixture(scope="module")
def world():
    return make_world()


def batch_costs(**kwargs):
    return ProcessCosts(**kwargs).scaled(0.01)


# -- unit harness: an FF pool over the identity plan function ---------------------


def _registry() -> FunctionRegistry:
    registry = FunctionRegistry()
    registry.register(
        helping_function(
            "ident",
            [("x", INTEGER)],
            TupleType((("y", INTEGER),)),
            lambda x: [(x,)],
            documentation="Returns its input row.",
        )
    )
    return registry


def make_pool(kernel, costs, *, fanout=2, pool_class=ChildPool, params=None):
    ctx = ExecutionContext(
        kernel=kernel, broker=None, functions=_registry(), run=QueryRun(obs=TraceRecorder())
    )
    body = ApplyNode(
        child=ParamNode(schema=("x",)),
        function="ident",
        arguments=(ColExpr("x"),),
        out_columns=("y",),
    )
    plan_function = PlanFunction("PFX", ("x",), body)
    if params is not None:
        return pool_class(ctx, plan_function, costs, params), ctx
    return pool_class(ctx, plan_function, costs, fanout), ctx


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


# -- cost-model validation ----------------------------------------------------------


def test_batch_knob_validation() -> None:
    assert ProcessCosts().batch_size == 1
    with pytest.raises(PlanError, match="batch size"):
        ProcessCosts(batch_size=0)
    assert ProcessCosts(batch_size=4).scaled(0.5).batch_size == 4  # a count


# -- seed equivalence at defaults ---------------------------------------------------


def test_defaults_send_no_batch_messages(world) -> None:
    central, _, central_broker = world.run_central(QUERY1_SQL)
    rows, _, broker, ctx = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    assert Bag(rows) == Bag(central)
    assert broker.total_calls() == central_broker.total_calls()
    # The per-tuple protocol, bit for bit: no batch messages, no flushes.
    assert not ctx.run.obs.store.find("batch_flush")
    stats = ctx.run.message_stats
    assert stats.param_batches == 0
    assert stats.result_batches == 0
    assert stats.param_tuples > 0  # per-tuple traffic is still accounted


def test_batch_size_one_is_identical_to_defaults(world) -> None:
    rows_a, kernel_a, _, ctx_a = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    rows_b, kernel_b, _, ctx_b = run_parallel(
        world, QUERY1_SQL, fanouts=[5, 4], costs=batch_costs(batch_size=1)
    )
    assert rows_a == rows_b  # same rows in the same order
    assert kernel_a.now() == pytest.approx(kernel_b.now())
    stats_a = ctx_a.run.message_stats
    stats_b = ctx_b.run.message_stats
    assert stats_a == stats_b


# -- batched execution preserves results --------------------------------------------


def test_batched_ff_preserves_rows_and_calls(world) -> None:
    central, _, central_broker = world.run_central(QUERY1_SQL)
    rows, _, broker, ctx = run_parallel(
        world, QUERY1_SQL, fanouts=[5, 4], costs=batch_costs(batch_size=4)
    )
    assert Bag(rows) == Bag(central)
    assert broker.total_calls() == central_broker.total_calls()
    stats = ctx.run.message_stats
    assert stats.param_batches > 0
    assert stats.batched_results > 0


def test_batching_reduces_messages(world) -> None:
    _, _, _, base_ctx = run_parallel(world, QUERY2_SQL, fanouts=[4, 3])
    _, _, _, ctx = run_parallel(
        world, QUERY2_SQL, fanouts=[4, 3], costs=batch_costs(batch_size=8)
    )
    base = base_ctx.run.message_stats
    batched = ctx.run.message_stats
    assert batched.total_messages < 0.7 * base.total_messages
    # Row conservation: every parameter tuple travels exactly once.
    assert (
        batched.param_tuples + batched.batched_params
        == base.param_tuples + base.batched_params
    )


def test_batching_composes_with_prefetch(world) -> None:
    central, _, central_broker = world.run_central(QUERY2_SQL)
    rows, _, broker, _ = run_parallel(
        world,
        QUERY2_SQL,
        fanouts=[3, 6],
        costs=batch_costs(batch_size=3, prefetch=3),
    )
    assert Bag(rows) == Bag(central)
    assert broker.total_calls() == central_broker.total_calls()


def test_batching_composes_with_hash_affinity(world) -> None:
    central, _, _ = world.run_central(QUERY1_SQL)
    rows, _, _, _ = run_parallel(
        world,
        QUERY1_SQL,
        fanouts=[4, 3],
        costs=batch_costs(batch_size=4, dispatch="hash_affinity"),
    )
    assert Bag(rows) == Bag(central)


def test_batching_composes_with_call_cache() -> None:
    from repro import CacheConfig, WSMED

    system = WSMED(
        profile="fast",
        process_costs=ProcessCosts(
            batch_size=4, dispatch="hash_affinity"
        ).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    system.import_all()
    sql = QUERY1_SQL
    central = system.sql(sql)
    batched = system.sql(sql, options=QueryOptions(mode="parallel", fanouts=[4, 3]))
    assert batched.as_bag() == central.as_bag()
    assert batched.cache_stats is not None
    assert batched.message_stats.param_batches > 0


def test_batching_on_aff_preserves_rows(world) -> None:
    central, _, _ = world.run_central(QUERY1_SQL)
    rows, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        adaptation=AdaptationParams(),
        costs=batch_costs(batch_size=4),
    )
    assert Bag(rows) == Bag(central)
    # Cycle monitoring keeps running under batched end-of-call delivery.
    assert ctx.run.obs.store.find("cycle")


def test_batching_with_drop_stage(world) -> None:
    central, _, _ = world.run_central(QUERY2_SQL)
    rows, _, _, _ = run_parallel(
        world,
        QUERY2_SQL,
        adaptation=AdaptationParams(p=2, threshold=0.9, drop_stage=True),
        costs=batch_costs(batch_size=4),
    )
    # A dropped victim's buffered batch is flushed ahead of its shutdown,
    # so no parameter tuple is ever lost to the drop stage.
    assert Bag(rows) == Bag(central)


# -- flush triggers ----------------------------------------------------------------


def test_size_trigger_flushes_full_batches() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, ProcessCosts(batch_size=3).scaled(0.001), fanout=1)
    out = drive(kernel, pool, [(i,) for i in range(9)])
    assert sorted(out) == [(i, i) for i in range(9)]
    flushes = ctx.run.obs.store.find("batch_flush")
    assert [event.attrs["trigger"] for event in flushes] == ["size", "size", "size"]
    assert all(event.attrs["size"] == 3 for event in flushes)


def test_stream_end_flushes_partial_batch() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, ProcessCosts(batch_size=4).scaled(0.001), fanout=1)
    out = drive(kernel, pool, [(i,) for i in range(6)])
    assert sorted(out) == [(i, i) for i in range(6)]
    triggers = [event.attrs["trigger"] for event in ctx.run.obs.store.find("batch_flush")]
    assert triggers == ["size", "stream_end"]


# -- service-time metadata (EndOfCall) ----------------------------------------------


def test_end_of_call_carries_service_time() -> None:
    kernel = SimKernel()
    costs = ProcessCosts().scaled(0.001)
    pool, ctx = make_pool(
        kernel, costs, pool_class=AFFPool, params=AdaptationParams(p=1)
    )
    observed: list[float] = []
    original = AFFPool._resolve_call

    async def recording(self, inv, message):
        observed.append(message.service_time)
        return await original(self, inv, message)

    AFFPool._resolve_call = recording
    try:
        drive(kernel, pool, [(i,) for i in range(8)])
    finally:
        AFFPool._resolve_call = original
    assert observed
    # Every call occupies the child for its per-row result CPU.
    assert all(value > 0 for value in observed)
    # The cycle monitoring surfaces the mean per-call occupancy.
    cycles = ctx.run.obs.store.find("cycle")
    assert cycles and all(
        cycle.attrs["mean_service_time"] > 0 for cycle in cycles
    )
