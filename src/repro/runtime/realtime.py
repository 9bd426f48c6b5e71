"""Real-time kernel on top of ``asyncio``.

Model seconds are scaled to wall-clock seconds by ``time_scale`` (default
1/1000: one model second runs as one millisecond) so the paper's multi-minute
workloads can execute as real concurrent programs in a test-friendly amount
of wall time.  Web-service latency is I/O waiting, so — per the reproduction
note — ``asyncio`` concurrency is the faithful Python equivalent of the
paper's parallel query processes despite the GIL.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Coroutine

from repro.runtime import base
from repro.util.errors import KernelError

#: Wall delays within the clock's resolution are zero: no timer is set.
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution


class _AsyncChannel(base.Channel):
    def __init__(self, kernel: "AsyncioKernel", name: str, latency: float) -> None:
        self.name = name
        self.latency = latency
        self._kernel = kernel
        self._queue: asyncio.Queue[Any] = asyncio.Queue()
        self._in_flight = 0

    def send(self, message: Any) -> None:
        delay = self.latency * self._kernel.time_scale
        if delay <= _CLOCK_RESOLUTION:
            self._queue.put_nowait(message)
            return
        self._in_flight += 1
        asyncio.get_running_loop().call_later(delay, self._deliver, message)

    def _deliver(self, message: Any) -> None:
        self._in_flight -= 1
        self._queue.put_nowait(message)

    async def recv(self) -> Any:
        return await self._queue.get()

    def pending(self) -> int:
        return self._queue.qsize() + self._in_flight


class _AsyncSemaphore(base.Semaphore):
    def __init__(self, value: int) -> None:
        if value < 0:
            raise KernelError(f"semaphore value must be >= 0, got {value}")
        self._value = value
        self._sem = asyncio.Semaphore(value)

    async def acquire(self) -> None:
        await self._sem.acquire()
        self._value -= 1

    def release(self) -> None:
        self._value += 1
        self._sem.release()

    def available(self) -> int:
        return self._value


class _AsyncEvent(base.Event):
    def __init__(self) -> None:
        self._event = asyncio.Event()

    async def wait(self) -> None:
        await self._event.wait()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


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
        if duration < 0:
            raise KernelError(f"cannot sleep a negative duration: {duration}")
        delay = duration * self.time_scale
        return asyncio.sleep(delay if delay > _CLOCK_RESOLUTION else 0)

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
