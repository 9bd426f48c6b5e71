"""The operator pools of one query process: acquisition and teardown.

:func:`install_pools` sets ``ctx.acquire_pool``: when the interpreter
reaches an ``FF_APPLYP``/``AFF_APPLYP`` node it asks for the node's
(per-process, persistent) pool and streams the node's input through it.
:func:`close_pools` is the teardown that follows the coordinator's plan
— its rows ended, it failed, or its consumer closed the row stream: the
chain stops, then every pool in the tree receives shutdown and the query
processes exit, or, on a resident engine, the warm trees go back to the
registry.
"""

from __future__ import annotations

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AFFApplyNode, FFApplyNode, PlanNode
from repro.parallel.aff_applyp import AFFPool
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool
from repro.util.errors import PlanError


def new_pool(node: PlanNode, ctx: ExecutionContext, costs: ProcessCosts) -> ChildPool:
    """A fresh (childless) pool for the parallel operator ``node``."""
    if isinstance(node, FFApplyNode):
        return ChildPool(ctx, node.plan_function, costs, node.fanout)
    return AFFPool(ctx, node.plan_function, costs, node.params)


def install_pools(
    ctx: ExecutionContext, costs: ProcessCosts, registry=None
) -> None:
    """Give ``ctx`` an ``acquire_pool`` that builds each operator's pool
    on first use.

    With a ``registry`` (the resident engine's
    :class:`~repro.engine.pools.PoolRegistry`), the pools of ``ctx`` —
    the coordinator's — are acquired from it instead, so a warm query
    reuses the previous query's child-process trees.  A child process
    installs its own acquirer (:func:`~repro.parallel.process.child_main`):
    its pools belong to its (resident) subtree and already survive with
    it, and its acquirer holds nothing of the query that spawned it.
    """
    # Fingerprints of registry pools this query holds — the acquisition
    # order PoolRegistry.acquire keeps cross-query sharing deadlock-free.
    held: list[int] = []

    async def acquire_pool(node: PlanNode, at: ExecutionContext) -> ChildPool:
        if not isinstance(node, (FFApplyNode, AFFApplyNode)):
            raise PlanError(f"not a parallel operator: {node.label()}")
        # Keyed on the node's stable plan-build identity, never id(node):
        # a garbage-collected node's id can be reused by the allocator and
        # would silently alias another operator's pool.
        pool = at.pools.get(node.node_id)
        if pool is None:
            if registry is not None:
                pool = await registry.acquire(node, costs, at, held)
            else:
                pool = new_pool(node, at, costs)
            at.pools[node.node_id] = pool
        return pool

    ctx.acquire_pool = acquire_pool


async def close_pools(ctx: ExecutionContext, chunks, registry=None) -> None:
    """Close the pull chain ``chunks``, then every pool of ``ctx``.

    The chain closes first, so its pool invocations stop before their
    pools go.  With a ``registry`` a live pool is released to it warm
    instead of shut down — safe after a failed or truncated invocation
    too: it reset its per-invocation state on the way out, and the next
    run() drops its late messages (by epoch, or by call seq).
    """
    await chunks.aclose()
    for pool in list(ctx.pools.values()):
        if registry is not None and not pool._closed:
            registry.release(pool)
        else:
            await pool.close()
