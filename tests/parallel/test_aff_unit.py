"""Fine-grained unit tests of the AFF_APPLYP pool mechanics.

These drive an :class:`AFFPool` directly with a synthetic plan function (a
helping function with a controllable virtual cost), so monitoring-cycle
accounting and stage decisions can be asserted precisely, independent of
the full query stack.
"""

import pytest

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AdaptationParams, ApplyNode, ParamNode, PlanFunction
from repro.fdb.functions import FunctionDef, FunctionKind
from repro.fdb.types import INTEGER, TupleType
from repro.obs.run import QueryRun
from repro.obs.spans import TraceRecorder
from repro.parallel.aff_applyp import AFFPool
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool
from repro.runtime.simulated import SimKernel

COSTS = ProcessCosts().scaled(0.001)


def make_pool(
    kernel, pool_class, *, pool_args=(), params=None, out_width=1, costs=COSTS
):
    """An operator pool over a trivial plan function echoing its input."""
    functions_registry = _registry()
    ctx = ExecutionContext(
        kernel=kernel,
        broker=None,
        functions=functions_registry,
        run=QueryRun(obs=TraceRecorder()),
    )
    body = ApplyNode(
        child=ParamNode(schema=("x",)),
        function="echo",
        arguments=(),
        out_columns=("y",),
    )
    # `echo` ignores arguments and returns one row; see _registry.
    plan_function = PlanFunction("PFX", ("x",), body)
    if params is not None:
        return pool_class(ctx, plan_function, costs, params), ctx
    return pool_class(ctx, plan_function, costs, *pool_args), ctx


def _registry():
    from repro.fdb.functions import FunctionRegistry

    registry = FunctionRegistry()
    registry.register(
        FunctionDef(
            name="echo",
            kind=FunctionKind.HELPING,
            parameters=(),
            result=TupleType((("y", INTEGER),)),
            implementation=lambda: [(1,)],
        )
    )
    return registry


async def feed(pool, rows):
    async def source():
        for row in rows:
            yield row

    collected = []
    async for row in pool.run(source()):
        collected.append(row)
    return collected


def test_ff_pool_processes_all_rows() -> None:
    kernel = SimKernel()
    pool, _ = make_pool(kernel, ChildPool, pool_args=(3,))

    async def main():
        result = await collect(pool, [(i,) for i in range(10)])
        await pool.close()
        return result

    async def collect(pool, rows):
        return await feed(pool, rows)

    rows = kernel.run(main())
    assert len(rows) == 10
    assert len(pool.children) == 0  # closed


def test_ff_pool_reuse_across_invocations() -> None:
    kernel = SimKernel()
    pool, _ = make_pool(kernel, ChildPool, pool_args=(2,))

    async def main():
        first = await feed(pool, [(1,), (2,)])
        second = await feed(pool, [(3,)])
        spawned = pool.ctx.run.tree.processes_spawned
        await pool.close()
        return first, second, spawned

    first, second, spawned = kernel.run(main())
    assert len(first) == 2 and len(second) == 1
    # Children persist across invocations: spawned only once.
    assert spawned == 2


def test_aff_pool_init_stage_is_binary() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, AFFPool, params=AdaptationParams(p=3))

    async def main():
        await feed(pool, [(i,) for i in range(2)])
        children = len(pool.children)
        await pool.close()
        return children

    # Two rows = exactly one monitoring cycle; the add stage fires after
    # it, so by completion the pool grew from 2 to 2+p.
    children = kernel.run(main())
    assert children == 5
    init = ctx.run.obs.store.find("init_stage")
    assert init and init[0].attrs["children"] == 2


def test_aff_monitoring_cycle_counts_end_of_calls() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(kernel, AFFPool, params=AdaptationParams(p=1))

    async def main():
        await feed(pool, [(i,) for i in range(12)])
        await pool.close()

    kernel.run(main())
    cycles = ctx.run.obs.store.find("cycle")
    assert cycles
    # Each cycle records the child count at its boundary and a positive
    # per-tuple time.
    for cycle in cycles:
        assert cycle.attrs["children"] >= 2
        assert cycle.attrs["time_per_tuple"] > 0
    # Cumulative end-of-calls (12) bound the number of cycles.
    assert len(cycles) <= 6


def test_aff_max_fanout_stops_add_stages() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(
        kernel, AFFPool, params=AdaptationParams(p=4, threshold=0.01, max_fanout=4)
    )

    async def main():
        await feed(pool, [(i,) for i in range(30)])
        children = len(pool.children)
        await pool.close()
        return children

    children = kernel.run(main())
    assert children <= 4
    stops = ctx.run.obs.store.find("adapt_stop")
    assert any("maximum fanout" in event.attrs["reason"] for event in stops)


def test_aff_drop_stage_respects_init_floor() -> None:
    kernel = SimKernel()
    pool, ctx = make_pool(
        kernel,
        AFFPool,
        params=AdaptationParams(p=1, threshold=0.9, drop_stage=True),
    )

    async def main():
        # Threshold 0.9 means improvements never re-trigger adds, while any
        # increase drops; the pool shrinks but never below two children.
        await feed(pool, [(i,) for i in range(40)])
        children = len(pool.children)
        await pool.close()
        return children

    children = kernel.run(main())
    assert children >= 2


def test_drop_stage_ships_the_victims_partial_batch() -> None:
    """A drop stage that finds rows buffered for its victim sends them
    ahead of the shutdown: every input row is still answered, once."""
    kernel = SimKernel()
    pool, ctx = make_pool(
        kernel,
        AFFPool,
        params=AdaptationParams(p=2, threshold=0.25, drop_stage=True),
        costs=ProcessCosts(batch_size=4).scaled(0.001),
    )

    async def main():
        async def source():
            for i in range(60):
                await kernel.sleep(0.002)  # rows trickle in: buffers stay partial
                yield (i,)

        rows = [row async for row in pool.run(source())]
        await pool.close()
        return rows

    rows = kernel.run(main())
    stats = ctx.run.message_stats
    assert stats.flushes.get("drop_stage", 0) >= 1
    assert ctx.run.tree.drop_stages >= 1
    # Each row shipped once (no redelivery) and answered once.
    assert stats.param_tuples + stats.batched_params == 60
    assert len(rows) == 60


def test_pool_rejects_use_after_close() -> None:
    kernel = SimKernel()
    pool, _ = make_pool(kernel, ChildPool, pool_args=(2,))

    async def main():
        await feed(pool, [(1,)])
        await pool.close()
        with pytest.raises(Exception, match="shutdown"):
            await feed(pool, [(2,)])

    kernel.run(main())
