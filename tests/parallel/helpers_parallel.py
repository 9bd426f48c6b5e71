"""Shared helpers for parallel-engine tests."""

from __future__ import annotations

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AdaptationParams
from repro.obs.run import QueryRun
from repro.obs.spans import TraceRecorder
from repro.parallel.costs import ProcessCosts
from repro.parallel.faults import FaultInjection
from repro.parallel.parallelizer import parallelize
from repro.runtime.simulated import SimKernel

from tests.helpers import World, run_in_context

FAST_COSTS = ProcessCosts().scaled(0.01)


def run_parallel(
    world: World,
    sql: str,
    *,
    fanouts: list[int] | None = None,
    adaptation: AdaptationParams | None = None,
    costs: ProcessCosts = FAST_COSTS,
    on_error: str = "fail",
    faults: FaultInjection | None = None,
    name: str = "Query",
):
    """Parallelize and execute, traced, under the query policy ``on_error``
    and injection ``faults``; returns (rows, kernel, broker, ctx).  The
    run's spans and instants are in ``ctx.run.obs.store``."""
    central = world.central_plan(sql, name)
    plan = parallelize(
        central, world.functions, fanouts=fanouts, adaptation=adaptation
    )
    kernel = SimKernel()
    broker = world.registry.bind(kernel)
    ctx = ExecutionContext(
        kernel=kernel,
        broker=broker,
        functions=world.functions,
        run=QueryRun(obs=TraceRecorder(), on_error=on_error, faults=faults),
    )
    rows = kernel.run(run_in_context(ctx, plan, costs))
    return rows, kernel, broker, ctx
