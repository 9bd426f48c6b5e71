"""Engine-level sharing of web-service work across concurrent queries.

The resident :class:`~repro.engine.QueryEngine` admits N queries on one
kernel.  The paper parallelizes *within* one query; multi-query
optimization (see *Multi Query Optimization in GLADE*, PAPERS.md) shares
work *between* them.  Call results are shared by the engine's one
:class:`~repro.cache.CallMemo` — memoization and single-flight across
every process of every query that memoizes, which on a
``QueryEngine(share=True)`` is every query that does not turn its cache
off.  ``share=True`` adds two tiers on top:

1. **Cross-query batching** (this module) — calls the memo did not
   answer that arrive within one linger window and target the same
   ``(uri, operation)`` coalesce into one
   :meth:`~repro.services.broker.ServiceBroker.call_many` transport round
   trip.  Results are demultiplexed back to each caller, and each sub-call
   keeps its own :class:`~repro.services.broker.CallRecorder` and
   trace/span attribution, so per-query statistics stay disjoint.
2. **Shared pools** — concurrent leases of warm child-process trees
   (:mod:`repro.engine.pools`).

With ``QueryEngine(share=False)`` neither tier exists.
"""

from __future__ import annotations

from typing import Any

from repro.cache import CacheStats
from repro.runtime.base import Kernel
from repro.services.broker import BatchRequest, CallRecorder, ServiceBroker

#: Cross-query batching: model seconds a call waits for company before
#: the coalesced flush (also the added worst-case latency of a lonely
#: call), and the pending count per ``(uri, operation)`` that flushes at
#: once.  Distinct from ``ProcessCosts.batch_*``, which batch
#: parent-to-child messages inside one query.
BATCH_LINGER = 0.002
BATCH_MAX = 16
#: The tiers a sharing engine runs; a test that isolates one patches the
#: other off.  ``BATCHING``: same-endpoint calls coalesce into one
#: ``call_many`` trip.  ``POOLS``: overlapping queries wait for a busy warm
#: pool (concurrent lease) instead of cold-cloning the tree.
BATCHING = True
POOLS = True


class CrossQueryBatcher:
    """The engine-scoped batching tier between every query and the broker.

    One instance belongs to one sharing :class:`~repro.engine.QueryEngine`;
    :func:`~repro.algebra.interpreter.round_trip` dispatches every call the
    memo did not answer through :meth:`call`.  Per-query attribution is
    preserved because each call carries its own recorder, counters and
    span.  ``batches`` and
    ``batched_calls`` count, over the engine's lifetime, the coalesced
    flushes (of >= 2 calls) and the calls they carried.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.batches = 0
        self.batched_calls = 0
        # Calls waiting to coalesce, per (uri, operation).
        self._pending: dict[tuple[str, str], list[BatchRequest]] = {}

    async def call(
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
        """One real round trip, possibly coalesced with concurrent ones;
        a coalesced one counts into the calling query's ``stats``."""
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
            pending = self._pending[queue_key] = [request]
            self.kernel.spawn(
                self._linger_flush(broker, uri, service, operation, pending),
            )
        else:
            pending.append(request)
            if len(pending) >= BATCH_MAX:
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
        pending: list[BatchRequest],
    ) -> None:
        await self.kernel.sleep(BATCH_LINGER)
        queue_key = (uri, operation)
        if self._pending.get(queue_key) is not pending:
            return  # already flushed by the size trigger
        del self._pending[queue_key]
        await self._flush(broker, uri, service, operation, pending)

    async def _flush(
        self,
        broker: ServiceBroker,
        uri: str,
        service: str,
        operation: str,
        requests: list[BatchRequest],
    ) -> None:
        coalesced = len(requests) >= 2
        if coalesced:
            self.batches += 1
            self.batched_calls += len(requests)
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
