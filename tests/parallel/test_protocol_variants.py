"""Tests for dispatch-protocol variants: prefetch and the level-synchronous
(WSQ/DSQ-style materialized levels) baseline."""

import pytest

from repro.algebra.interpreter import ExecutionContext
from repro.parallel.costs import ProcessCosts
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError

from benchmarks.level_synchronous import run_level_synchronous
from tests.helpers import QUERY1_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def central_bag(world):
    rows, _, _ = world.run_central(QUERY1_SQL)
    from repro.fdb.values import Bag

    return Bag(rows)


def fast_costs(**kwargs):
    return ProcessCosts(**kwargs).scaled(0.01)


def test_prefetch_preserves_results(world, central_bag) -> None:
    from repro.fdb.values import Bag

    for prefetch in (2, 4):
        rows, _, _, _ = run_parallel(
            world, QUERY1_SQL, fanouts=[4, 3], costs=fast_costs(prefetch=prefetch)
        )
        assert Bag(rows) == central_bag


def test_prefetch_keeps_children_loaded(world) -> None:
    # With prefetch, a child can hold several outstanding tuples, so the
    # parent never waits for end-of-call before shipping the next one.
    # Observable effect: identical totals, no lost or duplicated calls.
    _, _, broker, ctx = run_parallel(
        world, QUERY1_SQL, fanouts=[4, 3], costs=fast_costs(prefetch=3)
    )
    assert broker.total_calls() == 311
    assert len(ctx.run.obs.store.find("process_exit")) == len(ctx.run.obs.store.find("spawn"))


def test_prefetch_validation() -> None:
    with pytest.raises(PlanError, match="prefetch"):
        ProcessCosts(prefetch=0)


def run_level_sync(world, sql, workers):
    plan = world.central_plan(sql)
    kernel = SimKernel()
    broker = world.registry.bind(kernel)
    ctx = ExecutionContext(kernel=kernel, broker=broker, functions=world.functions)
    rows = kernel.run(run_level_synchronous(plan, ctx, world.functions, workers))
    return rows, kernel, broker


def test_level_synchronous_matches_central(world, central_bag) -> None:
    from repro.fdb.values import Bag

    rows, _, broker = run_level_sync(world, QUERY1_SQL, [5, 10])
    assert Bag(rows) == central_bag
    assert broker.total_calls() == 311


def test_level_synchronous_worker_limit_respected(world) -> None:
    # One worker per level = sequential levels: as slow as central within
    # the level, so clearly slower than a 5-worker pool.
    _, slow_kernel, _ = run_level_sync(world, QUERY1_SQL, [1, 1])
    _, fast_kernel, _ = run_level_sync(world, QUERY1_SQL, [5, 10])
    assert fast_kernel.now() < slow_kernel.now()


def test_level_synchronous_slower_than_streaming(world) -> None:
    # The materialized barrier between levels costs wall time against the
    # streaming process tree at comparable parallelism.
    _, sync_kernel, _ = run_level_sync(world, QUERY1_SQL, [5, 20])
    _, streaming_kernel, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    assert sync_kernel.now() > streaming_kernel.now()


def test_level_synchronous_validations(world) -> None:
    plan = world.central_plan(QUERY1_SQL)
    kernel = SimKernel()
    broker = world.registry.bind(kernel)
    ctx = ExecutionContext(kernel=kernel, broker=broker, functions=world.functions)
    with pytest.raises(PlanError, match="worker counts"):
        kernel.run(run_level_synchronous(plan, ctx, world.functions, [5]))
    plan_with_post = world.central_plan(
        "SELECT gs.Name FROM GetAllStates gs ORDER BY gs.Name"
    )
    with pytest.raises(PlanError, match="post-ops"):
        kernel2 = SimKernel()
        ctx2 = ExecutionContext(
            kernel=kernel2,
            broker=world.registry.bind(kernel2),
            functions=world.functions,
        )
        kernel2.run(
            run_level_synchronous(plan_with_post, ctx2, world.functions, [])
        )
