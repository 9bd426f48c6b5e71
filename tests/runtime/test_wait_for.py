"""wait_for on both kernels (the simulated tests live in test_timeouts)."""

import asyncio

import pytest

from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel


@pytest.mark.parametrize("make_kernel", [SimKernel, lambda: AsyncioKernel(time_scale=0.001)])
def test_wait_for_success(make_kernel) -> None:
    kernel = make_kernel()

    async def work():
        await kernel.sleep(5.0)
        return 42

    async def main():
        return await kernel.wait_for(work(), timeout=100.0)

    assert kernel.run(main()) == 42


@pytest.mark.parametrize("make_kernel", [SimKernel, lambda: AsyncioKernel(time_scale=0.001)])
def test_wait_for_timeout(make_kernel) -> None:
    kernel = make_kernel()

    async def work():
        await kernel.sleep(10_000.0)

    async def main():
        with pytest.raises(TimeoutError):
            await kernel.wait_for(work(), timeout=10.0)
        return "survived"

    assert kernel.run(main()) == "survived"


def test_wait_for_leaves_no_helper_tasks_sim() -> None:
    """Neither the timer nor the watcher may outlive the call (either path).

    A leaked timer stays pinned for the full timeout on every timed call
    that finished early — under the simulated kernel that means spurious
    heap events (and under ``asyncio``, a real sleeping task) per call.
    """
    kernel = SimKernel()

    async def quick():
        await kernel.sleep(1.0)
        return "ok"

    async def slow():
        await kernel.sleep(10_000.0)

    async def main():
        result = await kernel.wait_for(quick(), timeout=50_000.0)
        with pytest.raises(TimeoutError):
            await kernel.wait_for(slow(), timeout=10.0)
        for _ in range(5):  # let the scheduled cancellations run
            await kernel.sleep(0)
        stray = [
            task.name
            for task in kernel._tasks
            if not task.done and task.name.startswith("wait_for")
        ]
        assert stray == []
        return result

    assert kernel.run(main()) == "ok"


def test_wait_for_leaves_no_helper_tasks_asyncio() -> None:
    kernel = AsyncioKernel(time_scale=0.001)

    async def quick():
        await kernel.sleep(1.0)
        return "ok"

    async def main():
        # A timeout far in the future: a leaked timer would still be
        # sleeping when the check below runs.
        result = await kernel.wait_for(quick(), timeout=500_000.0)
        for _ in range(5):
            await asyncio.sleep(0)
        stray = [
            task.get_name()
            for task in asyncio.all_tasks()
            if not task.done() and task.get_name().startswith("wait_for")
        ]
        assert stray == []
        return result

    assert kernel.run(main()) == "ok"


def test_wait_for_nested_under_sim() -> None:
    kernel = SimKernel()

    async def inner():
        await kernel.sleep(1.0)
        return "inner"

    async def outer():
        return await kernel.wait_for(inner(), timeout=50.0)

    async def main():
        return await kernel.wait_for(outer(), timeout=100.0)

    assert kernel.run(main()) == "inner"


@pytest.mark.parametrize("make_kernel", [SimKernel, lambda: AsyncioKernel(time_scale=0.001)])
def test_cancelling_the_caller_cancels_the_body(make_kernel) -> None:
    """A caller cancelled mid-call takes its body down with it: a broker
    call under a timeout must not keep its slot after its caller is gone."""
    kernel = make_kernel()
    seen = []

    async def body():
        try:
            await kernel.sleep(50.0)
        except asyncio.CancelledError:
            seen.append("cancelled")
            raise
        seen.append("finished")

    async def caller():
        await kernel.wait_for(body(), timeout=1_000.0)

    async def main():
        handle = kernel.spawn(caller(), name="caller")
        await kernel.sleep(10.0)
        handle.cancel()
        with pytest.raises(asyncio.CancelledError):
            await handle.join()
        await kernel.sleep(100.0)  # past the body's own end
        if isinstance(kernel, SimKernel):
            return [task.name for task in kernel._tasks if task.name != "main"]
        return [
            task.get_name()
            for task in asyncio.all_tasks()
            if not task.done() and task is not asyncio.current_task()
        ]

    assert kernel.run(main()) == []
    assert seen == ["cancelled"]
