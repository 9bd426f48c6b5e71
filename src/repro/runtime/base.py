"""Kernel abstraction shared by the simulated and real-time runtimes.

A *kernel* provides the concurrency primitives the query-process engine
needs: a clock, sleeping, message channels with delivery latency, counted
semaphores (used by the service broker to model server capacity), events,
and process spawning.  Operator code (``FF_APPLYP``, ``AFF_APPLYP``, the
plan interpreter) only ever talks to this interface, which is what lets a
single implementation run both under virtual time and under ``asyncio``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Awaitable, Coroutine


class Channel(ABC):
    """An unbounded, ordered message channel with per-message latency.

    ``send`` never blocks (the paper's processes stream results back
    asynchronously); ``recv`` suspends until a message has *arrived*, i.e.
    its delivery latency has elapsed.
    """

    @abstractmethod
    def send(self, message: Any) -> None:
        """Enqueue ``message`` for delivery after the channel's latency."""

    @abstractmethod
    async def recv(self) -> Any:
        """Suspend until the next message is deliverable and return it."""


class Semaphore(ABC):
    """Counted semaphore with FIFO wakeup order."""

    @abstractmethod
    async def acquire(self) -> None: ...

    @abstractmethod
    def release(self) -> None: ...


class Event(ABC):
    """One-shot level-triggered event."""

    @abstractmethod
    async def wait(self) -> None: ...

    @abstractmethod
    def set(self) -> None: ...

    @abstractmethod
    def is_set(self) -> bool: ...


class ProcessHandle(ABC):
    """Handle to a spawned process (a kernel-scheduled coroutine)."""

    __slots__ = ()  # a subclass may keep its handles slotted

    name: str

    @property
    @abstractmethod
    def done(self) -> bool: ...

    @abstractmethod
    async def join(self) -> Any:
        """Wait for completion and return the process result.

        Re-raises the process's exception if it failed, including
        cancellation.
        """

    @abstractmethod
    def cancel(self) -> None:
        """Request cancellation; the process sees ``asyncio.CancelledError``."""


class Kernel(ABC):
    """Factory and scheduler for the primitives above."""

    # Bumped by every ``shutdown`` that actually tears state down.  Kernel
    # primitives (semaphores, events, channels) die with the world they
    # were created in; holders that cache one across a shutdown — e.g. the
    # engine's admission semaphore, the broker's endpoint slots, warm
    # child pools — key their cache on this counter so a reused kernel
    # never awaits a primitive bound to the dead run.
    generation: int = 0

    # A resident kernel keeps parked tasks (warm child processes) alive
    # between ``run`` calls; the resident QueryEngine requires one.
    resident: bool = False

    def attach_placement(
        self,
        ctx,
        *,
        functions=None,
        registry=None,
        seed: int = 0,
    ) -> None:
        """Hook called once per query before its plan runs.

        A kernel that shards child processes across OS workers
        (:class:`~repro.runtime.multiprocess.ProcessKernel`) points
        ``ctx.placement`` at its placement layer here; every other
        kernel keeps spawning locally, so the default does nothing.
        """

    @abstractmethod
    def now(self) -> float:
        """Current time in model seconds."""

    @abstractmethod
    def sleep(self, duration: float) -> Awaitable[None]:
        """Suspend the calling process for ``duration`` model seconds."""

    @abstractmethod
    def channel(self, name: str = "", latency: float = 0.0) -> Channel: ...

    @abstractmethod
    def semaphore(self, value: int) -> Semaphore: ...

    @abstractmethod
    def event(self) -> Event: ...

    @abstractmethod
    def spawn(
        self, coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> ProcessHandle:
        """Start ``coro`` as a concurrent process and return its handle."""

    @abstractmethod
    def run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Drive ``coro`` (and everything it spawns) to completion.

        Returns the coroutine's result; this is the single entry point from
        synchronous code.
        """

    def shutdown(self) -> None:
        """Release resources held by a *resident* kernel.

        One-shot kernels tear everything down at the end of each ``run``
        call, so the default is a no-op.  Resident kernels (constructed
        with ``resident=True``) keep parked tasks — e.g. warm child
        processes — alive between ``run`` calls and only reap them here.
        Idempotent: calling it twice (or on a kernel that never ran) is
        safe, which is what lets the context-manager protocol below and
        explicit ``close()`` paths coexist.
        """

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    async def gather(self, *coros: Coroutine[Any, Any, Any]) -> list[Any]:
        """Run coroutines concurrently and return their results in order."""
        handles = [self.spawn(coro, name=f"gather-{index}") for index, coro in enumerate(coros)]
        return [await handle.join() for handle in handles]

    async def wait_for(self, coro: Coroutine[Any, Any, Any], timeout: float) -> Any:
        """Run ``coro`` with a deadline of ``timeout`` model seconds.

        Raises :class:`TimeoutError` (the builtin) and cancels the
        coroutine if the deadline passes first, or if the caller is
        cancelled while it runs.  Built on the kernel primitives, so it
        works identically under both kernels.
        """
        done = self.event()
        task = self.spawn(coro, name="wait_for-body")

        async def watch() -> None:
            try:
                await task.join()
            except BaseException:
                pass
            done.set()

        async def timer() -> None:
            await self.sleep(timeout)
            done.set()

        watcher = self.spawn(watch(), name="wait_for-watch")
        sleeper = self.spawn(timer(), name="wait_for-timer")
        try:
            await done.wait()
        finally:
            # Nothing the call started may outlive it: a leaked sleeper
            # would stay pinned for the full timeout on every timed call
            # that finished early, and a body left running after a timeout
            # or a cancelled caller would keep its slots and book its work.
            for helper in (sleeper, watcher, task):
                if not helper.done:
                    helper.cancel()
        if task.done:
            return await task.join()
        raise TimeoutError(f"operation exceeded {timeout} model seconds")
