"""The OS worker-pool runtime of the multi-process kernel.

Two halves live here:

* :func:`worker_entry` + :class:`_WorkerRuntime` — the code that runs
  *inside* each worker process.  A worker builds its own resident
  :class:`~repro.runtime.realtime.AsyncioKernel` (clock-anchored to the
  parent's model time), rehydrates the shipped function registry, and then
  serves ``SpawnChild`` requests by running the unchanged
  :func:`~repro.parallel.process.child_main` coroutine per child.  Web
  service calls go through a :class:`_BrokerProxy` back to the parent
  (central accounting) unless the registry itself was shipped
  (``local_services`` — CPU-bound workloads).  Each child, with the
  nested children it spawns here, counts into a worker-local
  :class:`~repro.obs.run.QueryRun`, drained onto its call-ending messages.

* :class:`WorkerPool` — the parent-side manager: spawns/forks the worker
  processes, reads each worker's socket on the parent's event loop,
  heartbeats the fleet, and respawns dead workers (a SIGKILLed worker
  surfaces as EOF within milliseconds of the loop running; a *hung*
  worker is caught by missed heartbeats).  Message routing and child
  bookkeeping live one level up, in :mod:`repro.parallel.placement`.

Both sides write *frames* (a list of envelopes in send order, pickled behind
its length): the coordinator one per worker and loop tick, a worker one per
burst of ticks.  In a frame the per-call envelopes are tag-first tuples of
plain values (:func:`repro.runtime.wire.encode`), which the reader turns
back into the envelope its handler consumes; the rare ones are pickled
objects.  A worker reads on a thread, the coordinator on its loop without
blocking, so every blocking write is always drained.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
from typing import Any, Callable, Optional

from repro.cache import CacheConfig, CallMemo
from repro.parallel.messages import ResultTuple
from repro.parallel.process import ChildEndpoints, child_main
from repro.runtime import base
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.wire import (
    AnchorClock,
    BrokerRequest,
    BrokerResponse,
    CancelChild,
    ChildExited,
    FromChild,
    Ping,
    Pong,
    RebindChild,
    RegisterFunctions,
    RegisterServices,
    ShutdownWorker,
    SpawnChild,
    ToChild,
    WorkerReady,
    decode,
    encode,
)
from repro.obs.run import QueryRun
from repro.obs.spans import NULL_RECORDER, TraceRecorder
from repro.util.errors import KernelError, ReproError, ServiceFault

#: Wall seconds between worker pings; a worker missing HEARTBEAT_MISSES
#: consecutive pings is declared hung, killed and respawned.
HEARTBEAT_INTERVAL = 2.0
HEARTBEAT_MISSES = 3

#: A worker's frame waits while each loop tick still adds to it, so the burst
#: one coordinator frame sets off goes back as one frame; at most this many ticks.
_HOLD_TICKS = 8
_HEADER = struct.Struct("!I")  # a frame's length, then its pickled list


def write_frame(conn: socket.socket, envelopes: list) -> None:
    payload = pickle.dumps(encode(envelopes), protocol=pickle.HIGHEST_PROTOCOL)
    conn.sendall(_HEADER.pack(len(payload)) + payload)


def read_frame(stream) -> list:
    """Block for one whole frame from ``conn.makefile("rb")`` (a worker)."""
    header = stream.read(_HEADER.size)
    size = _HEADER.unpack(header)[0] if len(header) == _HEADER.size else -1
    payload = stream.read(max(size, 0))
    if len(payload) != size:
        raise EOFError("worker pipe closed")
    return decode(pickle.loads(payload))


def read_frames(conn: socket.socket, pending: bytearray) -> tuple[list, bool]:
    """Without blocking (the coordinator, on its loop): the whole frames
    readable now, and whether the worker hung up; a partial frame's bytes
    wait in ``pending``."""
    try:
        while data := conn.recv(1 << 16, socket.MSG_DONTWAIT):
            pending += data
        closed = True
    except BlockingIOError:
        closed = False
    except OSError:
        closed = True
    frames, start = [], 0
    while len(pending) - start >= _HEADER.size:
        end = start + _HEADER.size + _HEADER.unpack_from(pending, start)[0]
        if end > len(pending):
            break
        frames.append(decode(pickle.loads(pending[start + _HEADER.size : end])))
        start = end
    del pending[:start]
    return frames, closed


# -- code shipping ------------------------------------------------------------


def serialize_functions(registry) -> RegisterFunctions:
    """Pickle a function registry for shipping; unpicklables become stubs.

    Catalog-view closures (and any user lambda) cannot travel; they are
    named in ``stubs`` and the worker registers poisoned stand-ins so an
    accidental invocation fails with a clear error instead of a crash.
    """
    shippable = []
    stubs = []
    for function in registry.all():
        try:
            pickle.dumps(function)
        except Exception:
            stubs.append(function.name)
            continue
        shippable.append(function)
    return RegisterFunctions(pickle.dumps(shippable), tuple(stubs))


def serialize_services(registry, *, seed: int) -> RegisterServices:
    """Pickle a service registry so workers can bind a local broker."""
    return RegisterServices(pickle.dumps(registry), seed)


class _UnshippedFunction:
    """Stand-in for a function whose implementation could not be pickled."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, *args: Any) -> Any:
        from repro.fdb.functions import FunctionError

        raise FunctionError(
            f"function {self.name!r} was not shipped to this worker process "
            "(its implementation is not picklable); it can only run in the "
            "coordinator"
        )


# -- worker-side runtime ------------------------------------------------------


class _UplinkForwarder(base.Channel):
    """Child-side uplink: forwards protocol messages over the pipe.

    The parent delivers them into the pool's real inbox channel, which is
    where the (single) uplink ``message_latency`` is applied — the same
    one application a local child gets.  A message that ends a call
    carries the drained run, so the call's telemetry arrives no later
    than the call's end.
    """

    def __init__(self, runtime: "_WorkerRuntime", slot: "_ChildSlot") -> None:
        self._runtime = runtime
        self._slot = slot

    def send(self, message: Any) -> None:
        slot = self._slot
        ends_call = type(message) is not ResultTuple or message.end_of_call is not None
        run = slot.ctx.run.drain() if ends_call else None
        self._runtime.send(FromChild(slot.child_id, message, run))

    async def recv(self) -> Any:
        raise KernelError("worker uplink proxy is send-only")


class _BrokerProxy:
    """A worker child's ``run.remote``: its calls go to the coordinator.

    The coordinator makes the round trip for the child's query — answered
    by its memo when the query memoizes — so capacity semaphores, call
    statistics, memoization, cache counters and fault accounting stay
    central.  The reply's outcome comes back, so the child records a memo
    hit exactly like an in-process child; the counting was done where the
    call was served.  So does the answering entry's memo footprint, on
    the coordinator's clock: the bags it ends up in are stored and
    expire there.  Faults come back typed, with their ``retriable`` flag
    intact, for the child's retry loop.
    """

    def __init__(self, runtime: "_WorkerRuntime", child_id: int) -> None:
        self._runtime = runtime
        self._child_id = child_id
        # Whether the coordinator memoizes this child's query (its
        # ``QueryRun.memoizes``): then each reply carries the footprint of
        # the memo entry that answered.
        self.memoizes = False

    async def call(
        self,
        uri: str,
        service: str,
        operation: str,
        arguments: list,
        obs_span: int,
        footprint=None,
    ) -> tuple[Any, str]:
        runtime = self._runtime
        request_id = next(runtime.request_ids)
        future = asyncio.get_running_loop().create_future()
        runtime.broker_futures[request_id] = future
        runtime.send(
            BrokerRequest(
                request_id,
                self._child_id,
                uri,
                service,
                operation,
                tuple(arguments),
                obs_span=obs_span,
            )
        )
        reply: BrokerResponse = await future
        if reply.error is not None:
            kind, message, retriable = reply.error
            if kind == "fault":
                raise ServiceFault(message, retriable=retriable)
            raise ReproError(message)
        if footprint is not None:
            footprint.merge(reply.footprint)
        return reply.payload, reply.outcome


class _ChildSlot:
    """Worker-side bookkeeping of one resident child query process."""

    def __init__(self, runtime: "_WorkerRuntime", spec: SpawnChild) -> None:
        from repro.algebra.interpreter import ExecutionContext

        self._runtime = runtime
        self.child_id = spec.child_id
        self.costs = spec.costs
        self.exit_reason = "cancelled"  # reported if the task is cancelled
        kernel = runtime.kernel
        broker = runtime.local_broker
        self.ctx = ExecutionContext(
            kernel=kernel,
            broker=broker,
            functions=runtime.functions,
            process_name=spec.name,
            run=QueryRun(
                remote=_BrokerProxy(runtime, spec.child_id) if broker is None else None,
                # Worker-local (display-only) name space for nested
                # children, offset far from the coordinator's counter so
                # names stay unique across the whole distributed tree.
                names=itertools.count((spec.child_id + 1) * 100_000 + 1),
            ),
        )
        self._set_policy(spec)
        self.endpoints = ChildEndpoints(
            name=spec.name,
            downlink=kernel.channel(
                f"{spec.name}/downlink", latency=spec.costs.message_latency
            ),
            uplink=_UplinkForwarder(runtime, self),
        )
        self.handle: Optional[base.ProcessHandle] = None

    def _set_policy(self, spec: SpawnChild | RebindChild) -> None:
        run = self.ctx.run
        cache = spec.cache_config
        if run.remote is None:  # local services: calls run here
            run.memo = self._runtime.memo if cache is not None else None
            run.ttl = cache.ttl if cache is not None else None
        else:
            run.remote.memoizes = cache is not None
        run.retries = spec.retries
        run.retry_backoff = spec.retry_backoff
        run.on_error = spec.on_error
        run.faults = spec.faults
        run.service_faults = (
            spec.faults.service_fault_stream(self.ctx.process_name) if spec.faults else None
        )
        run.obs = TraceRecorder(first_id=spec.span_base) if spec.tracing else NULL_RECORDER

    def rebind(self, spec: RebindChild) -> None:
        """Re-home this warm child into a new query (remote rebind half):
        the new query's cache setting, policies and injected faults and,
        when it is traced, a fresh span recorder.  Counters need nothing: the run is
        drained per call."""
        self._set_policy(spec)
        self.ctx.obs_span = -1
        for pool in self.ctx.pools.values():
            pool.rebind(self.ctx)

    def end(self, reason: str) -> None:
        """Stop the child; its ``ChildExited`` reports ``reason``."""
        self.exit_reason = reason
        if self.handle is not None:
            self.handle.cancel()


class _WorkerRuntime:
    """Everything that runs inside one worker process."""

    def __init__(self, conn: socket.socket, worker_id: int) -> None:
        self.conn = conn
        self.stream = conn.makefile("rb")  # read by one thread at a time
        self.worker_id = worker_id
        self.kernel: Optional[AsyncioKernel] = None
        self.functions = None  # FunctionRegistry, set by RegisterFunctions
        self.local_broker = None  # set by RegisterServices
        # The memo of a local_services worker, whose children make their
        # calls here; rebuilt whenever definitions or services arrive.
        self.memo: Optional[CallMemo] = None
        self.children: dict[int, _ChildSlot] = {}
        self.broker_futures: dict[int, asyncio.Future] = {}
        self.request_ids = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._send_failed = False
        self._outbox: list = []  # this tick's envelopes, one frame

    # -- plumbing ---------------------------------------------------------

    def send(self, envelope: Any) -> None:
        if self._send_failed:
            return
        self._outbox.append(envelope)
        if len(self._outbox) == 1:
            self._loop.call_soon(self._flush, 1)

    def _flush(self, seen: int = 0, held: int = 0) -> None:
        """Write the outbox as one frame, unless the tick since ``seen``
        added to it: then the burst is still running, and the frame waits
        a tick (at most ``_HOLD_TICKS`` times)."""
        if seen and len(self._outbox) > seen and held < _HOLD_TICKS:
            self._loop.call_soon(self._flush, len(self._outbox), held + 1)
            return
        envelopes, self._outbox = self._outbox, []
        if not envelopes or self._send_failed:
            return
        try:
            write_frame(self.conn, envelopes)
        except OSError:
            # Parent is gone; nothing left to report to.
            self._send_failed = True
            if self._stop is not None:
                self._stop.set()

    def run(self) -> None:
        anchor, *replayed = read_frame(self.stream)
        if not isinstance(anchor, AnchorClock):
            raise KernelError(f"worker expected AnchorClock, got {anchor!r}")
        self.kernel = AsyncioKernel(
            time_scale=anchor.time_scale, resident=True
        )
        try:
            self.kernel.run(self._main(anchor, replayed))
        finally:
            self.kernel.shutdown()
            self._flush()

    async def _main(self, anchor: AnchorClock, envelopes: list) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        # Re-anchor so now() continues the parent's model clock: both
        # sides are wall clocks scaled by the same factor, so one origin
        # alignment keeps the domains coherent (modulo scheduling jitter,
        # which real distribution has anyway).
        self.kernel._start = loop.time() - anchor.model_now * anchor.time_scale
        self._stop = asyncio.Event()
        self._handle_frame(envelopes)  # what arrived with the anchor
        reader = threading.Thread(
            target=self._read_loop, name=f"worker{self.worker_id}-reader", daemon=True
        )
        reader.start()
        self.send(WorkerReady(self.worker_id, os.getpid()))
        await self._stop.wait()
        for future in self.broker_futures.values():
            if not future.done():
                future.set_exception(ReproError("worker shutting down"))
        self.broker_futures.clear()
        for slot in list(self.children.values()):
            if slot.handle is not None:
                slot.handle.cancel()
        for slot in list(self.children.values()):
            if slot.handle is not None:
                try:
                    await slot.handle.join()
                except BaseException:
                    pass
        self.children.clear()

    def _read_loop(self) -> None:
        with contextlib.suppress(RuntimeError):  # the loop closed under us
            while True:
                try:
                    envelopes = read_frame(self.stream)
                except (EOFError, OSError):
                    break
                self._loop.call_soon_threadsafe(self._handle_frame, envelopes)
            self._loop.call_soon_threadsafe(self._stop.set)

    def _handle_frame(self, envelopes: list) -> None:
        for message in envelopes:
            try:
                self._handle(message)
            except Exception as error:  # noqa: BLE001 - one envelope must not kill the worker
                text = f"{type(error).__name__}: {error}"
                slot = (
                    self.children.get(message.child_id)
                    if isinstance(message, (ToChild, RebindChild, CancelChild))
                    else None
                )
                if slot is not None:
                    # The child cannot go on in a known state: end it, and
                    # the pool's death path respawns it.
                    slot.end(text)
                else:
                    self._loop.call_exception_handler(
                        {"message": f"worker {self.worker_id}: {text}", "exception": error}
                    )

    # -- envelope handlers -------------------------------------------------

    def _handle(self, message: Any) -> None:
        if type(message) is ToChild:
            slot = self.children.get(message.child_id)
            if slot is not None:
                slot.endpoints.downlink.send(message.payload)
        elif type(message) is BrokerResponse:
            future = self.broker_futures.pop(message.request_id, None)
            if future is not None and not future.done():
                future.set_result(message)
        elif isinstance(message, SpawnChild):
            self._spawn_child(message)
        elif isinstance(message, RebindChild):
            slot = self.children.get(message.child_id)
            if slot is not None:
                slot.rebind(message)
        elif isinstance(message, CancelChild):
            slot = self.children.get(message.child_id)
            if slot is not None:
                slot.end("cancelled")
        elif isinstance(message, Ping):
            self.send(Pong(message.seq, self.worker_id))
        elif isinstance(message, RegisterFunctions):
            self._register_functions(message)
        elif isinstance(message, RegisterServices):
            registry = pickle.loads(message.payload)
            self.local_broker = registry.bind(self.kernel, seed=message.seed)
            self.memo = CallMemo(self.kernel, CacheConfig())
        elif isinstance(message, ShutdownWorker):
            self._stop.set()

    def _register_functions(self, message: RegisterFunctions) -> None:
        from repro.fdb.functions import FunctionDef, FunctionKind, FunctionRegistry
        from repro.fdb.types import TupleType

        registry = FunctionRegistry()
        for function in pickle.loads(message.payload):
            registry.replace(function)
        for name in message.stubs:
            registry.replace(
                FunctionDef(
                    name=name,
                    kind=FunctionKind.HELPING,
                    parameters=(),
                    result=TupleType(()),
                    implementation=_UnshippedFunction(name),
                    documentation="unshippable implementation (worker stub)",
                )
            )
        self.functions = registry
        self.memo = CallMemo(self.kernel, CacheConfig())
        # Children spawned before a re-registration keep their old
        # registry snapshot.

    def _spawn_child(self, spec: SpawnChild) -> None:
        try:
            slot = _ChildSlot(self, spec)
        except Exception as error:  # noqa: BLE001 - report, don't die
            self.send(
                ChildExited(spec.child_id, f"spawn failed: {error}")
            )
            return
        self.children[spec.child_id] = slot
        slot.handle = self.kernel.spawn(
            self._run_child(slot), name=spec.name
        )

    async def _run_child(self, slot: _ChildSlot) -> None:
        error: Optional[str] = None
        try:
            await child_main(slot.ctx, slot.costs, slot.endpoints)
        except asyncio.CancelledError:
            error = slot.exit_reason
        except BaseException as exc:  # noqa: BLE001 - ship the crash upward
            text = str(exc)
            error = f"{type(exc).__name__}: {text}" if text else type(exc).__name__
        finally:
            self.children.pop(slot.child_id, None)
            self.send(ChildExited(slot.child_id, error, slot.ctx.run.drain()))


def worker_entry(conn, worker_id: int) -> None:
    """OS-process entry point (``multiprocessing.Process`` target)."""
    try:
        _WorkerRuntime(conn, worker_id).run()
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- parent-side pool ---------------------------------------------------------


class WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self.last_pong = 0.0
        self.outbox: list = []  # this tick's envelopes, one frame
        self.pending = bytearray()  # a frame not yet whole

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class WorkerPool:
    """Spawns, feeds, heartbeats and respawns the OS worker fleet.

    The pool is transport only: every non-heartbeat envelope a worker
    sends is handed to ``on_message``; a death (pipe EOF, dead process,
    missed heartbeats) is announced via ``on_worker_death`` *before*
    the slot is respawned, so the placement layer can fail the dead
    worker's children over while replacement capacity comes up.
    """

    def __init__(
        self,
        size: int,
        *,
        time_scale: float,
        clock: Callable[[], float],
    ) -> None:
        if size < 1:
            raise KernelError(f"worker pool size must be >= 1, got {size}")
        self.size = size
        self.time_scale = time_scale
        self._clock = clock
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.workers: list[WorkerHandle] = []
        self.on_message: Optional[Callable[[WorkerHandle, Any], None]] = None
        self.on_worker_death: Optional[Callable[[WorkerHandle], None]] = None
        self._registrations: list[Any] = []  # replayed to every (re)spawned worker
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._ping_seq = itertools.count(1)
        self._started = False
        self._closed = False
        self.respawned_workers = 0

    # -- configuration -----------------------------------------------------

    def register(self, envelope: Any) -> None:
        """Ship a registration (functions/services) to all workers, now and
        on every future respawn."""
        self._registrations = [
            e for e in self._registrations if type(e) is not type(envelope)
        ]
        self._registrations.append(envelope)
        if self._started:
            for worker in self.workers:
                if worker.alive:
                    self.send(worker, envelope)

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        """Start the fleet; must run inside the kernel's event loop."""
        if self._started or self._closed:
            return
        self._started = True
        self._loop = asyncio.get_running_loop()
        for index in range(self.size):
            self.workers.append(self._launch(index))
        self._heartbeat_task = self._loop.create_task(
            self._heartbeat_loop(), name="worker-heartbeat"
        )

    def _launch(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = socket.socketpair()
        process = self._mp.Process(
            target=worker_entry,
            args=(child_conn, index),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = WorkerHandle(index, process, parent_conn)
        worker.last_pong = time.monotonic()
        self._loop.add_reader(parent_conn.fileno(), self._on_readable, worker)
        self.send(worker, AnchorClock(self._clock(), self.time_scale))
        for envelope in self._registrations:
            self.send(worker, envelope)
        return worker

    def _on_readable(self, worker: WorkerHandle) -> None:
        frames, closed = read_frames(worker.conn, worker.pending)
        for envelopes in frames:
            for message in envelopes:
                self._dispatch(worker, message)
        if closed:
            self._worker_died(worker)

    def _dispatch(self, worker: WorkerHandle, message: Any) -> None:
        if isinstance(message, (Pong, WorkerReady)):
            worker.last_pong = time.monotonic()
            return
        if self.on_message is not None:
            self.on_message(worker, message)

    def _worker_died(self, worker: WorkerHandle) -> None:
        if self._closed or not worker.alive:
            return
        worker.alive = False
        self._disconnect(worker)
        if self.on_worker_death is not None:
            self.on_worker_death(worker)
        # Respawn the slot so the fleet recovers its capacity; children
        # that died with the worker have already been failed over by the
        # placement layer (on_worker_death above).
        replacement = self._launch(worker.index)
        self.workers[self.workers.index(worker)] = replacement
        self.respawned_workers += 1

    async def _heartbeat_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            deadline = HEARTBEAT_INTERVAL * HEARTBEAT_MISSES
            for worker in list(self.workers):
                if not worker.alive:
                    continue
                if not worker.process.is_alive():
                    self._worker_died(worker)
                    continue
                if time.monotonic() - worker.last_pong > deadline:
                    # Hung worker: kill it; the pipe EOF then drives the
                    # normal death path (fail-over + respawn).
                    worker.process.terminate()
                    continue
                self.send(worker, Ping(next(self._ping_seq)))

    # -- sending -----------------------------------------------------------

    def send(self, worker: WorkerHandle, envelope: Any) -> bool:
        if not worker.alive:
            return False
        worker.outbox.append(envelope)
        if len(worker.outbox) == 1:
            self._loop.call_soon(self._flush, worker)
        return True

    def _flush(self, worker: WorkerHandle) -> None:
        envelopes, worker.outbox = worker.outbox, []
        if not envelopes or not worker.alive:
            return
        try:
            write_frame(worker.conn, envelopes)
        except OSError:
            self._worker_died(worker)

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; the fleet never starts again."""
        return self._closed

    def alive_workers(self) -> list[WorkerHandle]:
        return [worker for worker in self.workers if worker.alive]

    def pids(self) -> list[Optional[int]]:
        return [worker.pid for worker in self.workers if worker.alive]

    # -- shutdown ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker process.  Idempotent; safe outside the loop."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if worker.alive:
                envelopes, worker.outbox = worker.outbox, []
                try:
                    write_frame(worker.conn, envelopes + [ShutdownWorker()])
                except OSError:
                    pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.alive = False
            self._disconnect(worker)
        self.workers.clear()

    def _disconnect(self, worker: WorkerHandle) -> None:
        if worker.conn.fileno() >= 0:
            self._loop.remove_reader(worker.conn.fileno())
            worker.conn.close()
