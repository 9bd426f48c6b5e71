"""Tests for the asyncio-backed real-time kernel.

Wall-clock assertions use generous bounds so they stay robust on loaded CI
machines; the point is to show genuine overlap, not precise timing.
"""

import time

import pytest

from repro.runtime.realtime import AsyncioKernel
from repro.util.errors import KernelError


def test_run_returns_result() -> None:
    kernel = AsyncioKernel()

    async def main():
        return "ok"

    assert kernel.run(main()) == "ok"


def test_sleeps_actually_overlap() -> None:
    # 20 workers x 100 model-ms at scale 0.001 = 0.1 real-ms each; if they
    # ran sequentially with scale 1.0 they would take 2 wall seconds.
    kernel = AsyncioKernel(time_scale=0.001)

    async def worker():
        await kernel.sleep(100.0)

    async def main():
        await kernel.gather(*[worker() for _ in range(20)])

    start = time.monotonic()
    kernel.run(main())
    elapsed = time.monotonic() - start
    assert elapsed < 1.0


def test_now_tracks_model_seconds() -> None:
    kernel = AsyncioKernel(time_scale=0.001)

    async def main():
        await kernel.sleep(50.0)
        return kernel.now()

    model_elapsed = kernel.run(main())
    assert model_elapsed >= 50.0
    assert model_elapsed < 5000.0  # scaled back correctly, not raw wall time


def test_channel_roundtrip_with_latency() -> None:
    kernel = AsyncioKernel(time_scale=0.001)

    async def main():
        channel = kernel.channel("c", latency=10.0)
        channel.send("payload")
        return await channel.recv()

    assert kernel.run(main()) == "payload"


def test_semaphore_limits_concurrency() -> None:
    kernel = AsyncioKernel(time_scale=0.001)
    peak = 0
    active = 0

    async def worker(semaphore):
        nonlocal peak, active
        await semaphore.acquire()
        active += 1
        peak = max(peak, active)
        await kernel.sleep(20.0)
        active -= 1
        semaphore.release()

    async def main():
        semaphore = kernel.semaphore(3)
        await kernel.gather(*[worker(semaphore) for _ in range(9)])

    kernel.run(main())
    assert peak == 3


def test_event_signalling() -> None:
    kernel = AsyncioKernel(time_scale=0.001)

    async def main():
        event = kernel.event()

        async def setter():
            await kernel.sleep(5.0)
            event.set()

        kernel.spawn(setter())
        await event.wait()
        return event.is_set()

    assert kernel.run(main()) is True


def test_join_propagates_exception() -> None:
    kernel = AsyncioKernel()

    async def failing():
        raise ValueError("nope")

    async def main():
        handle = kernel.spawn(failing())
        await handle.join()

    with pytest.raises(ValueError, match="nope"):
        kernel.run(main())


def test_invalid_time_scale_rejected() -> None:
    with pytest.raises(KernelError):
        AsyncioKernel(time_scale=0.0)


def test_negative_sleep_rejected() -> None:
    kernel = AsyncioKernel()

    async def main():
        await kernel.sleep(-0.5)

    with pytest.raises(KernelError):
        kernel.run(main())
