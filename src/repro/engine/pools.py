"""Warm child-pool registry: process trees that outlive their query.

Spawning a child query process costs ``startup + ship_function +
install`` model seconds *per child, serially at the parent* — for a
Query1 tree of 25 processes that dwarfs the web-service calls a warm
cache avoids.  The registry keeps coordinator-level :class:`ChildPool`s
alive after their query completes, keyed by a *pool fingerprint*, and
leases them to later queries: a warm query ships zero plan functions
and spawns zero processes.

The fingerprint covers everything that must match for reuse to be
transparent:

* the plan function's structure (its cached ``memo_signature``) and the
  stable ``node_id`` of every nested operator — so a warm lease only
  ever happens for the *same compiled plan object*, i.e. after a
  plan-cache hit; a recompiled plan gets fresh node ids and cold-starts,
* the operator shape (FF fanout / AFF adaptation parameters),
* the process cost model.

The cache configuration is not part of it: children hold no memo of
their own, so one tree serves queries with any cache setting.  Nor are
the function definitions: the engine freezes its catalogue, so a tree
never outlives a definition it applies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import FFApplyNode, PlanNode
from repro.cache import stable_hash
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool
from repro.parallel.pools import new_pool


def pool_fingerprint(
    node: PlanNode,
    costs: ProcessCosts,
    *,
    structural: bool = False,
) -> int:
    """Stable identity of the child-process tree one operator would build.

    With ``structural=True`` (the sharing engine's common-subplan mode),
    the nested operator ids are left out, so independently compiled but
    structurally identical subplans match.
    """
    function = node.plan_function
    shape = ("ff", node.fanout) if isinstance(node, FFApplyNode) else ("aff", node.params)
    nested = () if structural else function.operator_ids
    return stable_hash((shape, function.memo_signature.definition, nested, costs))


@dataclass
class PoolRegistryStats:
    cold_starts: int = 0  # pools built because no warm one matched
    warm_leases: int = 0  # queries served from a resident tree
    released: int = 0  # pools handed back after a query
    trimmed: int = 0  # idle pools dropped by the LRU bound
    closed: int = 0  # pools actually shut down
    lease_waits: int = 0  # queries that parked for a busy warm tree (sharing on)
    shared_leases: int = 0  # warm leases satisfied after such a wait
    discarded: int = 0  # pools forgotten without shutdown (kernel already dead)


class PoolRegistry:
    """Free lists of idle warm pools, with an LRU bound.

    A leased pool is exclusively owned by its query until released, so
    concurrent queries with the same fingerprint each get their own tree
    (the second lease finds the free list empty and cold-starts).
    """

    def __init__(self, max_idle: int = 32) -> None:
        self.max_idle = max_idle
        self.stats = PoolRegistryStats()
        # The sharing engine turns this on: overlapping queries may then
        # *wait* for a busy warm tree instead of cold-cloning it, and
        # fingerprints become structural (common-subplan detection).
        self.share_pools = False
        # fingerprint -> stack of idle pools; OrderedDict gives LRU order
        # across fingerprints for the trim policy.
        self._free: "OrderedDict[int, list[ChildPool]]" = OrderedDict()
        self._idle = 0
        # fingerprint -> pools currently leased out.  The concurrent-
        # lease reference counts: len(bucket) holders now, plus waiter
        # events parked in _waiters until a release hands the tree over.
        self._leased: dict[int, list[ChildPool]] = {}
        self._waiters: dict[int, list] = {}
        # Trimmed pools awaiting asynchronous shutdown.
        self._doomed: list[ChildPool] = []

    # -- acquisition -------------------------------------------------------

    def _fingerprint(self, node: PlanNode, costs: ProcessCosts) -> int:
        return pool_fingerprint(node, costs, structural=self.share_pools)

    def _pop_free(self, key: int, ctx: ExecutionContext) -> ChildPool | None:
        bucket = self._free.get(key)
        if not bucket:
            return None
        pool = bucket.pop()
        if not bucket:
            del self._free[key]
        self._idle -= 1
        pool.rebind(ctx)
        self._leased.setdefault(key, []).append(pool)
        self.stats.warm_leases += 1
        return pool

    async def acquire(
        self,
        node: PlanNode,
        costs: ProcessCosts,
        ctx: ExecutionContext,
        held: list[int],
    ) -> ChildPool:
        """The pool for ``node`` in the coordinator ``ctx``: a warm one if
        one is free, else — sharing on — a busy one after it is released,
        else a freshly built one, stamped so it can be released later.

        A query waits only while another query holds a matching tree —
        that holder releases in its run's ``finally``, so the wait
        terminates.  ``held`` lists the fingerprints this query already
        holds (the acquired one is appended); waiting is allowed only on
        fingerprints above all of them, which totally orders acquisitions
        across queries and rules out circular waits (queries running the
        same cached plan acquire in identical plan order anyway — the
        common-subplan case this serves).
        """
        key = self._fingerprint(node, costs)
        waited = False
        pool = self._pop_free(key, ctx)
        while (
            pool is None
            and self.share_pools
            and self._leased.get(key)
            and not (held and max(held) >= key)
        ):
            waited = True
            self.stats.lease_waits += 1
            event = ctx.kernel.event()
            self._waiters.setdefault(key, []).append(event)
            await event.wait()
            pool = self._pop_free(key, ctx)
        held.append(key)
        if pool is not None:
            if waited:
                self.stats.shared_leases += 1
            return pool
        pool = new_pool(node, ctx, costs)
        pool.registry_key = key
        self._leased.setdefault(key, []).append(pool)
        self.stats.cold_starts += 1
        return pool

    def release(self, pool: ChildPool) -> None:
        """Hand a pool back after its query; it becomes leasable again,
        and waiters for its fingerprint wake to re-check the free list."""
        key = pool.registry_key
        if key is None:
            return
        bucket = self._leased.get(key)
        if bucket is not None and pool in bucket:
            bucket.remove(pool)
            if not bucket:
                del self._leased[key]
        if not pool._closed:
            self.stats.released += 1
            self._free.setdefault(key, []).append(pool)
            self._free.move_to_end(key)
            self._idle += 1
            while self._idle > self.max_idle:
                old_key = next(iter(self._free))
                bucket = self._free[old_key]
                self._doomed.append(bucket.pop(0))
                if not bucket:
                    del self._free[old_key]
                self._idle -= 1
                self.stats.trimmed += 1
        for event in self._waiters.pop(key, []):
            event.set()

    # -- shutdown ------------------------------------------------------------------

    async def drain(self) -> None:
        """Shut down doomed pools (called at query start and at close)."""
        while self._doomed:
            pool = self._doomed.pop()
            await pool.close()
            self.stats.closed += 1

    async def close_all(self) -> None:
        """Shut down every idle pool; the registry stays usable but cold."""
        for bucket in self._free.values():
            self._doomed.extend(bucket)
        self._free.clear()
        self._idle = 0
        await self.drain()

    def discard_all(self) -> None:
        """Forget every pool without closing it.

        For kernel-generation changes: ``Kernel.shutdown`` already killed
        the child-process tasks, so the graceful async close of
        :meth:`close_all` has nothing live to talk to — awaiting it would
        park on channels nobody serves.  Waiters (sharing mode) are woken
        so they cold-start on the fresh kernel instead of sleeping on a
        dead tree's release.  Synchronous on purpose: it runs before the
        next query enters the kernel.
        """
        discarded = self._idle + sum(
            len(bucket) for bucket in self._leased.values()
        ) + len(self._doomed)
        self._free.clear()
        self._idle = 0
        self._leased.clear()
        self._doomed.clear()
        self.stats.discarded += discarded
        for waiters in self._waiters.values():
            for event in waiters:
                event.set()
        self._waiters.clear()

    # -- introspection ----------------------------------------------------------------

    def idle_pools(self) -> int:
        return self._idle

    def resident_processes(self) -> int:
        """Live child processes currently parked in idle pools."""
        total = 0
        stack = [pool for bucket in self._free.values() for pool in bucket]
        while stack:
            pool = stack.pop()
            for child in pool.children:
                total += 1
                if child.ctx is not None:
                    stack.extend(child.ctx.pools.values())
        return total
