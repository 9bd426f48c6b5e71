"""Placement of child query processes onto OS worker processes.

The local kernels run every child of a query-process tree as a coroutine
in the coordinator's event loop.  Under a
:class:`~repro.runtime.multiprocess.ProcessKernel` the
:class:`Placement` layer instead maps each child a pool spawns onto one
of the kernel's OS workers:

* ``ChildPool.spawn_children`` consults ``ctx.placement``; when set, the
  child's downlink becomes a :class:`RemoteDownlink` (envelopes over the
  worker's pipe) and its handle a :class:`RemoteChildHandle` resolved by
  the worker's ``ChildExited`` report — the pool's own protocol loop,
  dispatch policies, fault handling and adaptation run unchanged.
* Children are assigned to workers by a stable hash of the plan-function
  name plus a rotating cursor, so one pool's fanout spreads across the
  fleet while repeated queries land warm children on the same workers.
* Uplink messages are delivered into the owning pool's real inbox
  channel, so the single uplink ``message_latency`` is applied exactly
  once, parent-side (the worker applies the downlink latency).
* Worker-side web-service calls arrive as ``BrokerRequest`` envelopes
  and are served by :func:`~repro.algebra.interpreter.round_trip` for
  the owning query — the coordinator's memo when the query memoizes,
  then its broker — so capacity semaphores, call statistics, memoization,
  multi-query sharing and fault accounting all stay centralized.  The
  reply carries the outcome, so the child records a call the memo
  answered as a ``cache_hit``/``cache_collapsed``, not a ``service_call``,
  and the answering entry's footprint, which the child folds into the
  footprint of the plan-function call it serves.
* A child counts into a worker-local run whose trace rows, finished
  spans and counter deltas ride its call-ending ``FromChild`` (and its
  ``ChildExited``); :meth:`~repro.obs.run.QueryRun.absorb` folds them
  into the owning query's run, so reports and exports look the same as
  with in-process children.

A worker death (pipe EOF, missed heartbeats) fails the worker's children
over: their handles resolve with an error, the pools' death watchers
emit ``ChildDied``, and the normal ``on_error`` machinery respawns the
children — on the surviving workers — while the
:class:`~repro.runtime.workers.WorkerPool` respawns the worker slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.algebra.interpreter import round_trip
from repro.cache import CacheConfig, Footprint, stable_hash
from repro.runtime.base import Channel, Kernel, ProcessHandle
from repro.runtime.wire import (
    BrokerRequest,
    BrokerResponse,
    CancelChild,
    ChildExited,
    FromChild,
    RebindChild,
    SpawnChild,
    ToChild,
)
from repro.runtime.workers import WorkerHandle, WorkerPool
from repro.util.errors import KernelError, ReproError, ServiceFault

#: Worker-side span ids for child N start at N * SPAN_BLOCK, which keeps
#: them disjoint from the coordinator recorder's ids (allocated from 0)
#: and from every other child's, so folding the shipped spans into one
#: store never collides.
SPAN_BLOCK = 1_000_000


@dataclass(eq=False)
class _Binding:
    """One remote child: where it lives and what owns it."""

    child_id: int
    name: str
    worker: WorkerHandle
    pool: Any  # the owning repro.parallel.ff_applyp.ChildPool
    span_base: int
    handle: "RemoteChildHandle" = None  # set right after construction
    active: bool = True


class RemoteChildHandle(ProcessHandle):
    """Process handle for a child running inside an OS worker.

    Resolved by the worker's ``ChildExited`` report (or by worker death);
    ``join`` then returns or raises like a local handle, so the pool's
    death watcher and ``close`` path work unchanged.
    """

    def __init__(self, placement: "Placement", binding: _Binding) -> None:
        self.name = binding.name
        self._placement = placement
        self._binding = binding
        self._exited = placement.kernel.event()
        self._error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self._exited.is_set()

    async def join(self) -> None:
        await self._exited.wait()
        if self._error is not None:
            raise ReproError(self._error)

    def cancel(self) -> None:
        if not self._exited.is_set():
            self._placement.cancel_child(self._binding)

    def _resolve(self, error: Optional[str]) -> None:
        self._error = error
        self._exited.set()


class RemoteDownlink(Channel):
    """Downlink of a remote child: wraps messages in ``ToChild`` envelopes.

    The worker-side slot owns the real latency-bearing channel; sends to
    a child whose worker died are dropped (the pool learns of the death
    through the child's handle and writes the in-flight rows off).
    """

    def __init__(self, placement: "Placement", binding: _Binding) -> None:
        self._placement = placement
        self._binding = binding

    def send(self, message: Any) -> None:
        binding = self._binding
        if not binding.active:
            return
        self._placement.pool.send(binding.worker, ToChild(binding.child_id, message))

    async def recv(self) -> Any:
        raise KernelError("remote downlink is send-only on the coordinator")


def _cache_config(run) -> CacheConfig | None:
    """What a ``local_services`` worker child needs of the query's cache
    setting: whether it memoizes (in the worker's memo), and the ttl."""
    return None if run.memo is None else CacheConfig(enabled=True, ttl=run.ttl)


class Placement:
    """Maps pool children onto the worker fleet and routes their traffic."""

    def __init__(self, kernel: Kernel, pool: WorkerPool) -> None:
        self.kernel = kernel
        self.pool = pool
        pool.on_message = self._on_message
        pool.on_worker_death = self._on_worker_death
        self._bindings: dict[int, _Binding] = {}
        self._child_ids = itertools.count(1)
        self._cursors: dict[str, int] = {}
        self._functions_shipped: Any = None
        self._functions_source: tuple[Any, int] | None = None
        self._services_source: Any = None

    # -- registration ------------------------------------------------------

    def attach(
        self,
        ctx,
        *,
        functions=None,
        services=None,
        seed: int = 0,
    ) -> None:
        """Point an execution context at this placement and ship code.

        The function registry can change between queries (a one-shot
        ``import_wsdl`` re-import, or a new name registered under an
        engine), so it is re-serialized when its mutation counter moved
        and shipped only when the pickled form actually changed; services
        are shipped once per registry object.  Both are replayed
        automatically to respawned workers.
        """
        from repro.runtime.workers import serialize_functions, serialize_services

        ctx.placement = self
        source = None if functions is None else (functions, functions.version)
        if source is not None and source != self._functions_source:
            self._functions_source = source
            envelope = serialize_functions(functions)
            if (
                self._functions_shipped is None
                or envelope.payload != self._functions_shipped.payload
                or envelope.stubs != self._functions_shipped.stubs
            ):
                self._functions_shipped = envelope
                self.pool.register(envelope)
        if services is not None and services is not self._services_source:
            self._services_source = services
            self.pool.register(serialize_services(services, seed=seed))

    # -- spawning ----------------------------------------------------------

    def _pick_worker(self, plan_function_name: str) -> WorkerHandle:
        alive = self.pool.alive_workers()
        if not alive:
            raise ReproError("no live worker processes to place children on")
        cursor = self._cursors.get(plan_function_name)
        if cursor is None:
            cursor = stable_hash(plan_function_name)
        self._cursors[plan_function_name] = cursor + 1
        return alive[cursor % len(alive)]

    def spawn_child(self, child_pool, name: str):
        """Place one new child of ``child_pool``; returns (endpoints, handle)."""
        from repro.parallel.process import ChildEndpoints

        self.pool.ensure_started()
        ctx = child_pool.ctx
        child_id = next(self._child_ids)
        worker = self._pick_worker(child_pool.plan_function.name)
        binding = _Binding(
            child_id=child_id,
            name=name,
            worker=worker,
            pool=child_pool,
            span_base=child_id * SPAN_BLOCK,
        )
        binding.handle = RemoteChildHandle(self, binding)
        self._bindings[child_id] = binding
        self.pool.send(
            worker,
            SpawnChild(
                child_id=child_id,
                name=name,
                costs=child_pool.costs,
                cache_config=_cache_config(ctx.run),
                retries=ctx.run.retries,
                retry_backoff=ctx.run.retry_backoff,
                on_error=ctx.run.on_error,
                faults=ctx.run.faults,
                tracing=ctx.run.obs.enabled,
                span_base=binding.span_base,
            ),
        )
        endpoints = ChildEndpoints(
            name=name,
            downlink=RemoteDownlink(self, binding),
            uplink=child_pool.inbox,
        )
        return endpoints, binding.handle

    def cancel_child(self, binding: _Binding) -> None:
        if binding.active:
            self.pool.send(binding.worker, CancelChild(binding.child_id))

    def rebind_pool(self, child_pool) -> None:
        """Remote half of ``ChildPool.rebind``: re-home warm children.
        Their telemetry needs no re-homing: it lands in whichever run
        owns the pool when it arrives."""
        run = child_pool.ctx.run
        for binding in self._bindings.values():
            if binding.pool is not child_pool or not binding.active:
                continue
            self.pool.send(
                binding.worker,
                RebindChild(
                    child_id=binding.child_id,
                    cache_config=_cache_config(run),
                    retries=run.retries,
                    retry_backoff=run.retry_backoff,
                    on_error=run.on_error,
                    faults=run.faults,
                    tracing=run.obs.enabled,
                    span_base=binding.span_base,
                ),
            )

    # -- message routing ---------------------------------------------------

    def _on_message(self, worker: WorkerHandle, message: Any) -> None:
        if type(message) is FromChild:
            binding = self._bindings.get(message.child_id)
            if binding is not None:
                if message.run is not None:
                    binding.pool.ctx.run.absorb(message.run)
                binding.pool.inbox.send(message.payload)
        elif type(message) is BrokerRequest:
            self.kernel.spawn(
                self._serve_broker(worker, message),
                name=f"broker-proxy-{message.request_id}",
            )
        elif isinstance(message, ChildExited):
            binding = self._bindings.pop(message.child_id, None)
            if binding is not None:
                binding.active = False
                if message.run is not None:
                    binding.pool.ctx.run.absorb(message.run)
                binding.handle._resolve(message.error)

    async def _serve_broker(self, worker: WorkerHandle, request: BrokerRequest) -> None:
        binding = self._bindings.get(request.child_id)
        try:
            if binding is None:
                raise ReproError(
                    f"broker request from unknown child {request.child_id}"
                )
            ctx = binding.pool.ctx
            footprint = Footprint() if ctx.run.memo is not None else None
            rows, outcome = await round_trip(
                ctx,
                request.uri,
                request.service,
                request.operation,
                list(request.arguments),
                request.obs_span,
                footprint,
            )
            reply = BrokerResponse(
                request.request_id,
                payload=rows,
                outcome=outcome,
                footprint=None if footprint is None else footprint.value,
            )
        except ServiceFault as fault:
            reply = BrokerResponse(
                request.request_id,
                error=("fault", str(fault), fault.retriable),
            )
        except BaseException as error:  # noqa: BLE001 - ship it back typed
            text = str(error) or type(error).__name__
            reply = BrokerResponse(
                request.request_id, error=(type(error).__name__, text, False)
            )
        self.pool.send(worker, reply)

    # -- worker death ------------------------------------------------------

    def _on_worker_death(self, worker: WorkerHandle) -> None:
        """Fail the dead worker's children over before the slot respawns."""
        dead = [
            binding
            for binding in self._bindings.values()
            if binding.worker is worker and binding.active
        ]
        for binding in dead:
            binding.active = False
            del self._bindings[binding.child_id]
            binding.handle._resolve(
                f"worker process {worker.pid} died (child {binding.name})"
            )

    # -- shutdown ----------------------------------------------------------

    def shutdown(self) -> None:
        for binding in list(self._bindings.values()):
            binding.active = False
            try:
                binding.handle._resolve("kernel shut down")
            except RuntimeError:
                pass  # loop already gone; waiters are being cancelled anyway
        self._bindings.clear()
