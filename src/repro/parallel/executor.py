"""Wires the parallel operators into the plan interpreter.

The executor installs ``acquire_pool`` on the execution context: when the
interpreter reaches an ``FF_APPLYP``/``AFF_APPLYP`` node it asks for the
node's (per-process, persistent) pool and streams the node's input
through it.  The executor also guarantees teardown: after the
coordinator's plan stops — its rows ended, it failed, or its consumer
closed the row stream — every pool in the tree receives shutdown and the
executor waits for all query processes to exit.
"""

from __future__ import annotations

from typing import AsyncIterator

from repro.algebra.interpreter import ExecutionContext, PullChain
from repro.algebra.plan import AFFApplyNode, FFApplyNode, PlanNode
from repro.parallel.aff_applyp import AFFPool
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool
from repro.util.errors import PlanError


class ParallelExecutor:
    """Runs (possibly parallel) plans under one execution context.

    With a ``pool_registry`` (the resident engine's
    :class:`~repro.engine.pools.PoolRegistry`), coordinator-level pools
    are leased from / released to the registry instead of being built and
    torn down per query, so a warm query reuses the previous query's
    child-process trees.  Without one (one-shot ``WSMED.sql``) pools are
    created on first use and closed in ``execute``'s ``finally``.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        costs: ProcessCosts | None = None,
        *,
        pool_registry=None,
    ) -> None:
        self.ctx = ctx
        self.costs = costs or ProcessCosts()
        self.pool_registry = pool_registry
        # Fingerprints of registry pools this query currently holds —
        # the acquisition-ordering evidence `lease_or_wait` uses to keep
        # cross-query pool sharing deadlock-free.
        self._held_keys: list[int] = []
        # The registry epoch under which this query's plan is current.
        # The engine constructs the executor in the same kernel step
        # that compiled (or fetched) the plan, so a later condemn — a
        # definition replaced while this query runs — is visible as
        # registry.epoch moving past this snapshot.
        self._lease_epoch = pool_registry.epoch if pool_registry is not None else 0
        ctx.acquire_pool = self._acquire_pool

    def _build_pool(self, node: PlanNode, ctx: ExecutionContext) -> ChildPool:
        if isinstance(node, FFApplyNode):
            return ChildPool(ctx, node.plan_function, self.costs, node.fanout)
        return AFFPool(ctx, node.plan_function, self.costs, node.params)

    async def _acquire_pool(
        self, node: PlanNode, ctx: ExecutionContext
    ) -> ChildPool:
        """The node's persistent pool in ``ctx``, created on first use."""
        if not isinstance(node, (FFApplyNode, AFFApplyNode)):
            raise PlanError(f"not a parallel operator: {node.label()}")
        # Keyed on the node's stable plan-build identity, never id(node):
        # a garbage-collected node's id can be reused by the allocator and
        # would silently alias another operator's pool.
        pool = ctx.pools.get(node.node_id)
        if pool is not None:
            return pool
        # Only coordinator-level pools go through the registry: pools
        # inside child processes belong to that child's (resident)
        # subtree and already survive with it.
        registry = self.pool_registry if ctx is self.ctx else None
        if registry is not None and registry.share_pools:
            # The sharing engine: may wait for a busy warm tree.
            pool, key = await registry.lease_or_wait(
                node, self.costs, ctx, self._held_keys
            )
            self._held_keys.append(key)
        elif registry is not None:
            pool = registry.lease(node, self.costs, ctx)
        if pool is None:
            pool = self._build_pool(node, ctx)
            if registry is not None:
                registry.register(node, self.costs, pool, epoch=self._lease_epoch)
        ctx.pools[node.node_id] = pool
        return pool

    async def execute(self, plan: PullChain) -> AsyncIterator[list[tuple]]:
        """Run the compiled ``plan`` in the coordinator and yield its rows
        chunk by chunk, each as soon as the chain produced it.

        Pool shutdown runs in a ``finally`` — when the rows end, when the
        plan fails, or when the consumer closes this generator — so that
        no query leaks query processes into the kernel (which would
        deadlock the simulated run loop).
        """
        chunks = plan.chunks(self.ctx, None)
        try:
            async for chunk in chunks:
                rows = list(chunk)
                if rows:
                    yield rows
        finally:
            # A consumer that stopped early closes the chain too, so its
            # pool invocations stop before their pools are released.
            await chunks.aclose()
            for pool in list(self.ctx.pools.values()):
                if self.pool_registry is not None and not pool._closed:
                    # Resident mode: hand the warm tree back instead of
                    # killing it.  Releasing after a failed or truncated
                    # invocation is safe — it reset its per-invocation
                    # state on the way out, and the next run() drops its
                    # late messages (by epoch, or by call seq).
                    self.pool_registry.release(pool)
                else:
                    await pool.close()
            self._held_keys.clear()
