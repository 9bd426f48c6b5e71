"""Real-time kernel on top of ``asyncio``.

Model seconds are scaled to wall-clock seconds by ``time_scale`` (default
1/1000: one model second runs as one millisecond) so the paper's multi-minute
workloads can execute as real concurrent programs in a test-friendly amount
of wall time.  Web-service latency is I/O waiting, so — per the reproduction
note — ``asyncio`` concurrency is the faithful Python equivalent of the
paper's parallel query processes despite the GIL.

Every timed wait costs one loop turn before it costs a timer.  A sleep
takes its deadline at the call, yields once and sets a timer only for
what the turn did not cover; a channel keeps at most one pending lander,
first a ``call_soon``, re-armed with ``call_at`` only while the oldest
message in transit is still short of its deadline.  At a small
``time_scale`` a wait is shorter than a loop turn, so it sets no timer.
"""

from __future__ import annotations

import asyncio
import time
import types
from collections import deque
from typing import Any, Coroutine

from repro.runtime import base
from repro.util.errors import KernelError

#: Message latencies within the clock's resolution are zero: no lander is set.
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution


def _hand_over(futures: deque, value: Any) -> bool:
    """Give ``value`` to the first live parked future; False if none."""
    while futures:
        future = futures.popleft()
        if not future.done():
            future.set_result(value)
            return True
    return False


class _AsyncChannel(base.Channel):
    """Deques of arrived messages and of parked receivers' futures.  A
    receiver cancelled after it was handed a message puts it back at the
    head.  Above the clock's resolution a message enters transit with its
    deadline, and one pending lander hands over every message whose
    deadline has passed, oldest first: it is set by ``call_soon`` when
    transit was empty and re-armed by ``call_at`` on the head's deadline
    while any message is left, so order holds and none lands early."""

    def __init__(self, kernel: "AsyncioKernel", name: str, latency: float) -> None:
        self.name = name
        self.latency = latency
        self._kernel = kernel
        self._messages: deque[Any] = deque()
        self._receivers: deque[asyncio.Future] = deque()
        self._in_transit: deque[tuple[float, Any]] = deque()  # (deadline, message)
        self._lander: asyncio.Handle | None = None

    def send(self, message: Any) -> None:
        delay = self.latency * self._kernel.time_scale
        if delay <= _CLOCK_RESOLUTION:
            if not _hand_over(self._receivers, message):
                self._messages.append(message)
            return
        loop = asyncio.get_running_loop()
        self._in_transit.append((loop.time() + delay, message))
        if self._lander is None:
            self._lander = loop.call_soon(self._land)

    def _land(self) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        in_transit = self._in_transit
        while in_transit and in_transit[0][0] <= now:
            message = in_transit.popleft()[1]
            if not _hand_over(self._receivers, message):
                self._messages.append(message)
        self._lander = loop.call_at(in_transit[0][0], self._land) if in_transit else None

    async def recv(self) -> Any:
        if self._messages:
            return self._messages.popleft()
        receiver = asyncio.get_running_loop().create_future()
        self._receivers.append(receiver)
        try:
            return await receiver
        except asyncio.CancelledError:
            if not receiver.cancelled():  # handed a message, then cancelled
                message = receiver.result()
                if not _hand_over(self._receivers, message):
                    self._messages.appendleft(message)
            raise


class _AsyncSemaphore(base.Semaphore):
    """A counter and the FIFO futures of parked acquirers: ``release``
    hands its slot to the first live waiter, so nobody barges, and a
    waiter granted a slot, then cancelled, passes it on."""

    def __init__(self, value: int) -> None:
        if value < 0:
            raise KernelError(f"semaphore value must be >= 0, got {value}")
        self._value = value
        self._waiters: deque[asyncio.Future] = deque()

    async def acquire(self) -> None:
        if self._value:  # a free slot: nobody waits
            self._value -= 1
            return
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if not waiter.cancelled():  # granted, then cancelled
                self.release()
            raise

    def release(self) -> None:
        if not _hand_over(self._waiters, None):
            self._value += 1


class _AsyncEvent(asyncio.Event, base.Event):
    """``wait``, ``set`` and ``is_set`` are ``asyncio.Event``'s own."""


@types.coroutine
def _sleep_until(loop: asyncio.AbstractEventLoop, deadline: float):
    """One yield to the loop, as ``asyncio.sleep(0)`` does without its
    coroutine; then, while ``deadline`` (loop time) has not passed, a
    timer for what is left (``asyncio`` may fire one a clock tick early)."""
    yield
    while (remaining := deadline - loop.time()) > 0:
        yield from asyncio.sleep(remaining)


class _AsyncHandle(base.ProcessHandle):
    def __init__(self, task: asyncio.Task, name: str) -> None:
        self.name = name
        self._task = task

    @property
    def done(self) -> bool:
        return self._task.done()

    async def join(self) -> Any:
        return await self._task

    def cancel(self) -> None:
        self._task.cancel()


class AsyncioKernel(base.Kernel):
    """Kernel whose clock is the wall clock, scaled by ``time_scale``."""

    def __init__(self, *, time_scale: float = 0.001, resident: bool = False) -> None:
        if time_scale <= 0:
            raise KernelError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self._start: float | None = None
        self._spawned = 0
        # A resident kernel keeps one event loop alive across ``run``
        # calls so tasks parked on queues (warm child processes) survive
        # between queries; ``shutdown`` cancels them and closes the loop.
        self.resident = resident
        self._loop: asyncio.AbstractEventLoop | None = None

    def now(self) -> float:
        if self._start is None:
            return 0.0
        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        return (loop.time() - self._start) / self.time_scale

    def sleep(self, duration: float):
        """Wake at ``duration`` scaled model seconds after the call, never
        earlier: one loop turn first, and a timer only for the rest."""
        if duration < 0:
            raise KernelError(f"cannot sleep a negative duration: {duration}")
        loop = asyncio.get_running_loop()
        return _sleep_until(loop, loop.time() + duration * self.time_scale)

    def channel(self, name: str = "", latency: float = 0.0) -> _AsyncChannel:
        return _AsyncChannel(self, name, latency)

    def semaphore(self, value: int) -> _AsyncSemaphore:
        return _AsyncSemaphore(value)

    def event(self) -> _AsyncEvent:
        return _AsyncEvent()

    def spawn(self, coro: Coroutine, name: str = "") -> _AsyncHandle:
        self._spawned += 1
        task_name = name or f"task-{self._spawned}"
        task = asyncio.get_running_loop().create_task(coro, name=task_name)
        return _AsyncHandle(task, task_name)

    def run(self, coro: Coroutine) -> Any:
        if not self.resident:
            async def main() -> Any:
                self._start = asyncio.get_running_loop().time()
                return await coro

            return asyncio.run(main())
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._start = self._loop.time()
        return self._loop.run_until_complete(coro)

    def shutdown(self) -> None:
        """Cancel tasks still parked on the resident loop and close it."""
        if self._loop is None:
            return
        loop, self._loop = self._loop, None
        pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()
        self.generation += 1
