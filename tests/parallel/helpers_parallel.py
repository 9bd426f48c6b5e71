"""Shared helpers for parallel-engine tests."""

from __future__ import annotations

from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import AdaptationParams
from repro.obs.run import QueryRun
from repro.obs.spans import TraceRecorder
from repro.parallel.costs import ProcessCosts
from repro.parallel.executor import ParallelExecutor
from repro.parallel.parallelizer import parallelize
from repro.runtime.simulated import SimKernel

from tests.helpers import World, collect_chunks

FAST_COSTS = ProcessCosts().scaled(0.01)


def run_parallel(
    world: World,
    sql: str,
    *,
    fanouts: list[int] | None = None,
    adaptation: AdaptationParams | None = None,
    costs: ProcessCosts = FAST_COSTS,
    fault_rate: float = 0.0,
    name: str = "Query",
):
    """Parallelize and execute, traced; returns (rows, kernel, broker, ctx).
    The run's spans and instants are in ``ctx.run.obs.store``."""
    central = world.central_plan(sql, name)
    plan = parallelize(
        central, world.functions, fanouts=fanouts, adaptation=adaptation
    )
    kernel = SimKernel()
    broker = world.registry.bind(kernel, fault_rate=fault_rate)
    ctx = ExecutionContext(
        kernel=kernel,
        broker=broker,
        functions=world.functions,
        run=QueryRun(obs=TraceRecorder()),
    )
    executor = ParallelExecutor(ctx, costs)
    rows = kernel.run(collect_chunks(executor.execute(compile_plan(plan))))
    return rows, kernel, broker, ctx
