"""Discrete-event virtual-time kernel.

Processes are plain ``async def`` coroutines.  Awaiting one of the kernel's
primitives yields a *request* through the coroutine chain to the scheduler
— a bare float for a sleep, a request object otherwise — which resumes the
process when the request is satisfied, at a later point of the virtual
clock, never of the wall clock.  The scheduler is fully deterministic: ties
in time are broken by a monotone sequence number, so every run of an
experiment with the same seed produces identical traces.

A heap entry is ``(time, seq, action, argument)``: the scheduler calls
``action(argument)``, a bound method, so scheduling builds no closure.
"""

from __future__ import annotations

import heapq
import types
from asyncio import CancelledError
from collections import deque
from functools import partial
from typing import Any, Callable, Coroutine, Generator

from repro.runtime import base
from repro.util.errors import DeadlockError, KernelError


class _Request:
    """A scheduler request; awaiting one (or ``recv``/``acquire``, which
    yield their primitive's own) yields it to the scheduler and returns the
    value the task is resumed with."""

    __slots__ = ()

    def __await__(self) -> Generator["_Request", Any, Any]:
        value = yield self
        return value


class _RecvRequest(_Request):
    __slots__ = ("channel",)

    def __init__(self, channel: "SimChannel") -> None:
        self.channel = channel


class _AcquireRequest(_Request):
    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "SimSemaphore") -> None:
        self.semaphore = semaphore


class _WaitRequest(_Request):
    __slots__ = ("event",)

    def __init__(self, event: "SimEvent") -> None:
        self.event = event


class _JoinRequest(_Request):
    __slots__ = ("task",)

    def __init__(self, task: "SimTask") -> None:
        self.task = task


class SimTask(base.ProcessHandle):
    """A coroutine scheduled by :class:`SimKernel`."""

    __slots__ = ("name", "_kernel", "_coro", "_done", "_cancel_requested", "_result",
                 "_error", "_joiners", "_wake_token", "_parked_on")

    def __init__(self, kernel: "SimKernel", coro: Coroutine, name: str) -> None:
        self.name = name
        self._kernel = kernel
        self._coro = coro
        self._done = False
        self._cancel_requested = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._joiners: list[SimTask] = []
        # Incremented whenever the task is rescheduled so that stale wakeup
        # callbacks (e.g. a sleep that was cancelled) become no-ops.
        self._wake_token = 0
        self._parked_on: Any = None  # a request or a sleep; named in a deadlock

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """Result of a finished task; raises its error if it failed."""
        if not self._done:
            raise KernelError(f"task {self.name!r} is not finished")
        if self._error is not None:
            raise self._error
        return self._result

    async def join(self) -> Any:
        if not self._done:
            await _JoinRequest(self)
        return self.result()

    def cancel(self) -> None:
        if self._done or self._cancel_requested:
            return
        self._cancel_requested = True
        # Invalidate whatever wakeup the task was waiting for and deliver
        # CancelledError at the current virtual time instead.
        self._wake_token += 1
        kernel = self._kernel
        kernel._schedule(kernel._now, partial(kernel._step, exc=CancelledError()), self)
        # One join rule on both kernels: as awaiting an ``asyncio.Task``
        # does, a cancelled joiner cancels the task it joins.
        request = self._parked_on
        if type(request) is _JoinRequest:
            joined = request.task
            if self in joined._joiners:
                joined._joiners.remove(self)
            joined.cancel()

    # -- internal -----------------------------------------------------------

    def _wake(self, token: int) -> None:
        """End a sleep, unless a cancel moved the token on since."""
        if self._wake_token == token:
            self._kernel._step(self)

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._done = True
        self._result = result
        self._error = error
        kernel = self._kernel
        kernel._tasks.pop(self, None)
        joiners, self._joiners = self._joiners, []
        for joiner in joiners:
            kernel._schedule(kernel._now, kernel._step, joiner)


class SimChannel(base.Channel):
    """Channel with optional delivery latency under virtual time."""

    def __init__(self, kernel: "SimKernel", name: str, latency: float) -> None:
        self.name = name
        self.latency = latency
        self._kernel = kernel
        # (deliver_time, message) in send order.  The latency is fixed and
        # virtual time never goes back, so delivery times never decrease
        # along the queue: FIFO is delivery order.
        self._queue: deque[tuple[float, Any]] = deque()
        # Parked receivers, oldest first: one in practice, so a list, not a deque.
        self._waiters: list[SimTask] = []
        self._recv = _RecvRequest(self)
        # When the last drain scheduled here runs, if it has not yet: a
        # second drain for the same instant would find nothing to hand over.
        self._drain_at: float | None = None

    def send(self, message: Any) -> None:
        deliver_at = self._kernel._now + self.latency
        self._queue.append((deliver_at, message))
        if self._waiters and self._drain_at != deliver_at:
            self._drain_at = deliver_at
            self._kernel._schedule(deliver_at, self._drain, deliver_at)

    @types.coroutine
    def recv(self):
        return (yield self._recv)

    # -- internal -----------------------------------------------------------

    def _schedule_drain(self, at: float) -> None:
        if self._drain_at != at:
            self._drain_at = at
            self._kernel._schedule(at, self._drain, at)

    def _drain(self, now: float) -> None:
        """Hand messages ready at ``now`` to parked receivers, in FIFO order."""
        if self._drain_at == now:
            self._drain_at = None
        waiters, queue, step = self._waiters, self._queue, self._kernel._step
        while waiters and queue and queue[0][0] <= now:
            waiter = waiters.pop(0)
            if waiter._done or waiter._cancel_requested:
                continue
            step(waiter, queue.popleft()[1])
        if waiters and queue:
            self._schedule_drain(queue[0][0])


class SimSemaphore(base.Semaphore):
    """FIFO counted semaphore under virtual time."""

    def __init__(self, kernel: "SimKernel", value: int) -> None:
        if value < 0:
            raise KernelError(f"semaphore value must be >= 0, got {value}")
        self._kernel = kernel
        self._value = value
        self._waiters: deque[SimTask] = deque()
        self._acquire = _AcquireRequest(self)

    @types.coroutine
    def acquire(self):
        yield self._acquire

    def release(self) -> None:
        self._value += 1
        self._wake_next()

    # -- internal -----------------------------------------------------------

    def _try_take(self) -> bool:
        while self._waiters and (
            self._waiters[0]._done or self._waiters[0]._cancel_requested
        ):
            self._waiters.popleft()
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def _wake_next(self) -> None:
        kernel = self._kernel
        while self._value > 0 and self._waiters:
            waiter = self._waiters.popleft()
            if waiter._done or waiter._cancel_requested:
                continue
            self._value -= 1
            kernel._schedule(kernel._now, kernel._step, waiter)
            break


class SimEvent(base.Event):
    def __init__(self, kernel: "SimKernel") -> None:
        self._kernel = kernel
        self._set = False
        self._waiters: list[SimTask] = []

    async def wait(self) -> None:
        if not self._set:
            await _WaitRequest(self)

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        kernel = self._kernel
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter._done:
                kernel._schedule(kernel._now, kernel._step, waiter)

    def is_set(self) -> bool:
        return self._set


#: What a parked task waits on, as a DeadlockError names it.
_PARKED_ON = {
    float: lambda request: "sleep",
    _RecvRequest: lambda request: f"recv({request.channel.name})",
    _AcquireRequest: lambda request: "semaphore",
    _WaitRequest: lambda request: "event",
    _JoinRequest: lambda request: f"join({request.task.name})",
    type(None): lambda request: "?",
}


#: Livelock guard: events one ``run`` may process before it is aborted.
MAX_EVENTS = 50_000_000


class SimKernel(base.Kernel):
    """Deterministic discrete-event scheduler.

    ``run`` drives the main coroutine to completion, advancing a virtual
    clock.  If the event heap empties while tasks are still parked the
    kernel raises :class:`DeadlockError` naming them, so protocol bugs fail
    fast instead of hanging.
    """

    def __init__(self, *, resident: bool = False) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        # Unfinished tasks in spawn order (a task leaves as it finishes), so
        # a resident kernel never walks the warm processes parked in it;
        # ``_spawned`` numbers unnamed tasks.
        self._tasks: dict[SimTask, None] = {}
        self._spawned = 0
        self._events = 0
        # A resident kernel leaves parked tasks (warm child processes)
        # alive when ``run`` returns, so later ``run`` calls can resume
        # them; ``shutdown`` reaps whatever is still parked.
        self.resident = resident

    @property
    def events_processed(self) -> int:
        """Events all ``run`` calls took off the heap (a count, not a knob)."""
        return self._events

    # -- Kernel API ----------------------------------------------------------

    def now(self) -> float:
        return self._now

    @types.coroutine
    def sleep(self, duration: float):
        if duration < 0:
            raise KernelError(f"cannot sleep a negative duration: {duration}")
        # The scheduler tells a sleep by its type: an int sleeps as a float.
        yield duration + 0.0

    def channel(self, name: str = "", latency: float = 0.0) -> SimChannel:
        return SimChannel(self, name, latency)

    def semaphore(self, value: int) -> SimSemaphore:
        return SimSemaphore(self, value)

    def event(self) -> SimEvent:
        return SimEvent(self)

    def spawn(self, coro: Coroutine, name: str = "") -> SimTask:
        task = SimTask(self, coro, name or f"task-{self._spawned}")
        self._spawned += 1
        self._tasks[task] = None
        self._schedule(self._now, self._step, task)
        return task

    def run(self, coro: Coroutine) -> Any:
        main = self.spawn(coro, name="main")
        heap, pop, limit = self._heap, heapq.heappop, MAX_EVENTS
        events = 0
        while heap and not main._done:
            events += 1
            if events > limit:
                raise KernelError(
                    f"simulation exceeded {limit} events; "
                    "likely a livelock in operator code"
                )
            time, _, action, argument = pop(heap)
            if time < self._now:
                raise KernelError("scheduler time went backwards")
            self._now = time
            action(argument)
        self._events += events
        if not main.done:
            waiting = ", ".join(
                f"{task.name}<-{_PARKED_ON[type(task._parked_on)](task._parked_on)}"
                for task in self._tasks
            )
            self._close_remaining()
            raise DeadlockError(f"no runnable tasks; parked: {waiting}")
        if self.resident:
            self._spawned = len(self._tasks)
        else:
            self._close_remaining()
        return main.result()

    def shutdown(self) -> None:
        """Reap tasks a resident kernel kept parked between runs."""
        self._close_remaining()
        self._spawned = 0
        self._heap.clear()
        self.generation += 1

    def _close_remaining(self) -> None:
        """Close coroutines of tasks abandoned when the main task ended."""
        for task in list(self._tasks):
            if not task.done:
                try:
                    task._coro.close()
                except RuntimeError:
                    # A coroutine that awaits kernel primitives inside a
                    # finally block cannot close cleanly; swallowing the
                    # error here keeps the real failure (for example a
                    # DeadlockError naming the parked tasks) visible.
                    pass
                task._finish(None, CancelledError("kernel shut down"))

    # -- internal -----------------------------------------------------------

    def _schedule(self, time: float, action: Callable[[Any], None], argument: Any) -> None:
        heapq.heappush(self._heap, (time, self._seq, action, argument))
        self._seq += 1

    def _step(
        self, task: SimTask, value: Any = None, exc: BaseException | None = None
    ) -> None:
        """Advance ``task`` until it parks, sleeps or finishes."""
        if task._done:
            return
        coro = task._coro
        while True:
            try:
                if exc is not None:
                    pending_exc, exc = exc, None
                    request = coro.throw(pending_exc)
                else:
                    request = coro.send(value)
            except StopIteration as stop:
                task._finish(stop.value, None)
                return
            except CancelledError as cancelled:
                task._finish(None, cancelled)
                return
            except BaseException as error:  # surface failures via join()
                task._finish(None, error)
                return
            value = None
            kind = type(request)
            if kind is float:
                heapq.heappush(
                    self._heap,
                    (self._now + request, self._seq, task._wake, task._wake_token),
                )
                self._seq += 1
            elif kind is _RecvRequest:
                channel = request.channel
                queue = channel._queue
                if queue and queue[0][0] <= self._now:
                    value = queue.popleft()[1]  # already arrived
                    continue
                channel._waiters.append(task)
                if queue:
                    channel._schedule_drain(queue[0][0])
            elif kind is _AcquireRequest:
                if request.semaphore._try_take():
                    continue
                request.semaphore._waiters.append(task)
            elif kind is _WaitRequest:
                if request.event.is_set():
                    continue
                request.event._waiters.append(task)
            elif kind is _JoinRequest:
                if request.task._done:
                    continue
                request.task._joiners.append(task)
            else:
                raise KernelError(
                    f"task {task.name!r} awaited a foreign awaitable: {request!r}; "
                    "only kernel primitives may be awaited under SimKernel"
                )
            task._parked_on = request
            return
