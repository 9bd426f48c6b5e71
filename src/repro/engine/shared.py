"""Engine-level sharing of web-service work across concurrent queries.

The resident :class:`~repro.engine.QueryEngine` admits N queries on one
kernel, but each query is blind to the others: every query (and every
child process) keeps its own :class:`~repro.cache.CallCache`, so 16
clients running the same query do 16x the broker work.  The paper
parallelizes *within* one query; multi-query optimization (see *Multi
Query Optimization in GLADE*, PAPERS.md) shares work *between* them.
This module is the first two of the engine's three sharing tiers:

1. **Shared call cache** — one engine-scoped memo of web-service results
   keyed ``(uri, service, operation, args)``, consulted after the
   per-process tier misses.  Its LRU bound is independent of the
   per-process tier, and entries are invalidated when
   ``import_wsdl``/``register_helping_function`` replaces a definition.
2. **Cross-query single-flight** — an identical call already in flight
   for query A is awaited, not re-issued, by query B.  Unlike the
   per-process collapse (where waiters share the leader's fault), a
   failed leader here must *not* poison the waiting query: waiters wake,
   discard the foreign failure and retry, one of them becoming the new
   leader.  Total broker calls therefore scale with the number of
   *distinct* calls, not the number of clients.
3. **Cross-query batching** — misses that survive both tiers within one
   linger window and target the same ``(uri, operation)`` coalesce into
   one :meth:`~repro.services.broker.ServiceBroker.call_many` transport
   round trip.  Results are demultiplexed back to each caller, and each
   sub-call keeps its own :class:`~repro.services.broker.CallRecorder`
   and trace/span attribution, so per-query statistics stay disjoint.

(The third sharing tier — concurrent leases of warm child-process trees —
lives in :mod:`repro.engine.pools`.)

Everything here is off by default; with ``QueryEngine(share=False)`` the
engine's call path is bit-for-bit identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cache import MISS, CacheStats, MemoStore
from repro.runtime.base import Kernel
from repro.services.broker import BatchRequest, CallRecorder, ServiceBroker

#: Shared-tier outcomes, in trace/report vocabulary.  ``MISS`` (a real
#: broker round trip) is shared with the per-process tier.
SHARED_HIT = "shared_hit"
SHARED_WAIT = "shared_wait"

#: LRU bound of the shared memo, independent of the per-process tier
#: (entries never expire; replaced definitions still evict).
MAX_ENTRIES = 4096
#: Cross-query batching: model seconds a miss waits for company before
#: the coalesced flush (also the added worst-case latency of a lonely
#: call), and the pending count per ``(uri, operation)`` that flushes at
#: once.  Distinct from ``ProcessCosts.batch_*``, which batch
#: parent-to-child messages inside one query.
BATCH_LINGER = 0.002
BATCH_MAX = 16
#: The tiers a sharing engine runs; a test that isolates one patches the
#: others off.  ``CACHE``: the shared result memo *and* cross-query
#: single-flight (dedup rides on the in-flight table).  ``BATCHING``:
#: same-endpoint misses coalesce into one ``call_many`` trip.  ``POOLS``:
#: overlapping queries wait for a busy warm pool (concurrent lease)
#: instead of cold-cloning the tree.
CACHE = True
BATCHING = True
POOLS = True


@dataclass
class SharedStats:
    """Engine-lifetime counters of the shared tier (all queries).

    ``hits``          calls served from the shared memo.
    ``misses``        broker round trips issued through the tier.
    ``waits``         calls that parked on another query's in-flight
                      identical call and shared its result.
    ``failures``      leader calls that raised; their waiters retried
                      instead of inheriting the fault.
    ``evictions``     entries dropped by the LRU bound.
    ``expirations``   entries dropped because their TTL elapsed.
    ``invalidations`` entries dropped because a definition was replaced.
    ``batches``       coalesced flushes that carried >= 2 calls.
    ``batched_calls`` calls that rode a coalesced flush.
    """

    hits: int = 0
    misses: int = 0
    waits: int = 0
    failures: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    batches: int = 0
    batched_calls: int = 0


class _PendingBatch:
    """Calls waiting to coalesce for one ``(uri, operation)``."""

    __slots__ = ("requests", "generation")

    def __init__(self, generation: int) -> None:
        self.requests: list[BatchRequest] = []
        self.generation = generation


class SharedCallCache:
    """The engine-scoped sharing tier above every per-process cache.

    One instance belongs to one :class:`~repro.engine.QueryEngine`; all
    queries (and all their child processes) route broker round trips
    through :meth:`call`.  Per-query attribution is preserved because
    each call carries its own recorder, counters and span, and trace
    events are written by the caller, never by the shared tier.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.stats = SharedStats()
        self._memo = MemoStore(kernel, MAX_ENTRIES, None)
        self._pending: dict[tuple[str, str], _PendingBatch] = {}
        self._generation = 0

    def __len__(self) -> int:
        return len(self._memo.entries)

    # -- lookup ------------------------------------------------------------------

    async def call(
        self,
        broker: ServiceBroker,
        uri: str,
        service: str,
        operation: str,
        arguments: list[Any],
        *,
        recorder: CallRecorder | None = None,
        stats: CacheStats,
        obs=None,
        obs_span: int = -1,
    ) -> tuple[Any, str]:
        """Route one web-service call through the sharing tiers.

        Returns ``(value, outcome)`` where ``outcome`` is one of
        :data:`SHARED_HIT`, :data:`SHARED_WAIT` or :data:`~repro.cache.MISS`
        (a real round trip).  The calling query's ``stats`` count the
        hits, the waits and the round trips that rode a cross-query batch.
        """
        key = (uri, service, operation, tuple(arguments))
        try:
            hash(key)
        except TypeError:
            key = None  # unhashable argument: dispatch without memoizing or dedup
        if key is None or not CACHE:
            self.stats.misses += 1
            value = await self._dispatch(
                broker, uri, service, operation, arguments,
                recorder=recorder, stats=stats, obs=obs, obs_span=obs_span,
            )
            return value, MISS

        waited = False
        while True:
            entry = self._memo.lookup(key, self.stats)
            if entry is not None:
                if waited:
                    # Parked on a flight whose leader succeeded and
                    # memoized before this waiter re-checked.
                    self.stats.waits += 1
                    stats.shared_waits += 1
                    return entry.value, SHARED_WAIT
                self.stats.hits += 1
                stats.shared_hits += 1
                return entry.value, SHARED_HIT

            flight = self._memo.in_flight.get(key)
            if flight is None:
                break  # no leader: become one
            waited = True
            await flight.done.wait()
            if flight.error is None:
                self.stats.waits += 1
                stats.shared_waits += 1
                return flight.value, SHARED_WAIT
            # The leader's call failed.  That fault belongs to the query
            # that issued it — inheriting it here would poison an
            # innocent query — so loop and retry (possibly as the new
            # leader).

        def invoke():
            return self._dispatch(
                broker, uri, service, operation, arguments,
                recorder=recorder, stats=stats, obs=obs, obs_span=obs_span,
            )

        return await self._memo.lead(key, invoke, self.stats), MISS

    # -- cross-query batching ------------------------------------------------------

    async def _dispatch(
        self,
        broker: ServiceBroker,
        uri: str,
        service: str,
        operation: str,
        arguments: list[Any],
        *,
        recorder: CallRecorder | None,
        stats: CacheStats,
        obs,
        obs_span: int,
    ) -> Any:
        """One real round trip, possibly coalesced with concurrent ones."""
        if not BATCHING:
            return await broker.call(
                uri, service, operation, arguments,
                recorder=recorder, obs=obs, obs_span=obs_span,
            )

        request = BatchRequest(
            arguments=arguments, recorder=recorder, obs=obs, obs_span=obs_span,
            done=self.kernel.event(),
        )
        queue_key = (uri, operation)
        pending = self._pending.get(queue_key)
        if pending is None:
            self._generation += 1
            pending = _PendingBatch(self._generation)
            self._pending[queue_key] = pending
            pending.requests.append(request)
            self.kernel.spawn(
                self._linger_flush(broker, uri, service, operation, pending),
            )
        else:
            pending.requests.append(request)
            if len(pending.requests) >= BATCH_MAX:
                del self._pending[queue_key]
                await self._flush(broker, uri, service, operation, pending)
        await request.done.wait()
        if request.error is not None:
            raise request.error
        if request.coalesced:
            stats.coalesced += 1
        return request.value

    async def _linger_flush(
        self,
        broker: ServiceBroker,
        uri: str,
        service: str,
        operation: str,
        pending: _PendingBatch,
    ) -> None:
        await self.kernel.sleep(BATCH_LINGER)
        queue_key = (uri, operation)
        current = self._pending.get(queue_key)
        if current is not pending or current.generation != pending.generation:
            return  # already flushed by the size trigger
        del self._pending[queue_key]
        await self._flush(broker, uri, service, operation, pending)

    async def _flush(
        self,
        broker: ServiceBroker,
        uri: str,
        service: str,
        operation: str,
        pending: _PendingBatch,
    ) -> None:
        requests = pending.requests
        coalesced = len(requests) >= 2
        if coalesced:
            self.stats.batches += 1
            self.stats.batched_calls += len(requests)
        for request in requests:
            request.coalesced = coalesced
        try:
            if coalesced:
                await broker.call_many(uri, service, operation, requests)
            else:
                request = requests[0]
                try:
                    request.value = await broker.call(
                        uri, service, operation, request.arguments,
                        recorder=request.recorder,
                        obs=request.obs, obs_span=request.obs_span,
                    )
                except BaseException as error:
                    request.error = error
        finally:
            for request in requests:
                request.done.set()

    # -- invalidation ------------------------------------------------------------

    def invalidate_operation(self, operation_name: str) -> int:
        """Drop every memoized result of ``operation_name``.

        Wired to ``WSMED.add_replace_listener``: when ``import_wsdl`` or
        ``register_helping_function`` replaces a definition, results the
        old provider produced must not serve later queries.  In-flight
        calls cannot be recalled — they are the same small race window a
        single query already has between issuing a call and a concurrent
        re-import.
        """
        wanted = operation_name.lower()
        entries = self._memo.entries
        stale = [key for key in entries if key[2].lower() == wanted]
        for key in stale:
            del entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)
