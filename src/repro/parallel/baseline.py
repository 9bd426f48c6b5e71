"""Level-synchronous baseline: WSQ/DSQ-style dependent-join execution.

The paper positions WSMED against WSQ/DSQ [9], which "handles high-latency
calls ... by launching asynchronous materialized dependent joins": each
dependency level is evaluated with parallel asynchronous calls, but its
results are *materialized* before the next level starts.  WSMED instead
streams parameter tuples through a non-blocking process tree, overlapping
the levels in time.

:func:`run_level_synchronous` implements the materialized strategy over
the same simulated services so benchmarks can quantify the difference.
It is deliberately generous to the baseline: calls within a level share a
plain worker pool with no process start-up, shipping or messaging costs.
"""

from __future__ import annotations

from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import ParamNode, PlanNode
from repro.fdb.functions import FunctionRegistry
from repro.parallel.parallelizer import Section, _rebuild, split_sections
from repro.util.errors import PlanError


async def run_level_synchronous(
    plan: PlanNode,
    ctx: ExecutionContext,
    registry: FunctionRegistry,
    workers_per_level: list[int],
) -> list[tuple]:
    """Execute a linear central plan level by level with materialization.

    ``workers_per_level`` bounds the concurrent calls per dependency level
    (one entry per parallelizable section).  Post-processing operators
    (sort/limit/distinct) are not supported — pass the plain conjunctive
    plan, as the benchmarks do.
    """
    coordinator_nodes, sections, post = split_sections(plan, registry)
    if post:
        raise PlanError("level-synchronous baseline does not support post-ops")
    if len(workers_per_level) != len(sections):
        raise PlanError(
            f"expected {len(sections)} worker counts, got {len(workers_per_level)}"
        )

    from repro.algebra.plan import SingletonNode

    coordinator_plan = _rebuild(coordinator_nodes[1:], SingletonNode())
    rows = await compile_plan(coordinator_plan).rows(ctx)

    for section, workers in zip(sections, workers_per_level):
        if workers < 1:
            raise PlanError("worker counts must be >= 1")
        rows = await _run_level(section, rows, ctx, workers)
    return rows


async def _run_level(
    section: Section,
    params: list[tuple],
    ctx: ExecutionContext,
    workers: int,
) -> list[tuple]:
    """All calls of one level through a bounded worker pool, materialized."""
    body = compile_plan(_rebuild(section.nodes, ParamNode(schema=section.input_schema)))
    slots = ctx.kernel.semaphore(workers)
    # Results per parameter keep a deterministic order regardless of the
    # completion interleaving.
    buckets: list[list[tuple]] = [[] for _ in params]

    async def one(index: int, row: tuple) -> None:
        await slots.acquire()
        try:
            buckets[index] = await body.rows(ctx, row)
        finally:
            slots.release()

    await ctx.kernel.gather(
        *[one(index, row) for index, row in enumerate(params)]
    )
    return [row for bucket in buckets for row in bucket]
