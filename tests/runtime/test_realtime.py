"""Tests for the asyncio-backed real-time kernel.

Wall-clock assertions use generous bounds so they stay robust on loaded CI
machines; the point is to show genuine overlap, not precise timing.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.realtime import AsyncioKernel
from repro.util.errors import KernelError

from tests.runtime.test_kernel_contract import _early


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


# -- yield-first waits ------------------------------------------------------------

# Model seconds from nothing, through well under a loop turn, to a few wall
# milliseconds at time_scale=1e-6.
waits = st.one_of(
    st.just(0.0),
    st.floats(min_value=-3.0, max_value=3.5).map(lambda exponent: 10.0**exponent),
)


@given(
    sleeps=st.lists(waits, min_size=1, max_size=20),
    latencies=st.lists(waits, min_size=1, max_size=3),
    sends=st.lists(st.tuples(st.integers(0, 2), waits), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_no_wait_ends_early_and_channels_stay_fifo(sleeps, latencies, sends) -> None:
    """Sleeps and transits that end within the loop turn they yield and
    ones that need a timer (a lander re-armed on the head's deadline while
    later messages queue behind it): none ends before its scaled deadline,
    and every channel hands its messages over in send order."""
    kernel = AsyncioKernel(time_scale=1e-6)
    slack = _early(kernel)
    sends = [(channel % len(latencies), gap) for channel, gap in sends]

    async def main():
        channels = [kernel.channel(f"c{i}", latency=l) for i, l in enumerate(latencies)]
        overslept = []

        async def sleeper(duration):
            start = kernel.now()
            await kernel.sleep(duration)
            overslept.append(kernel.now() - start - duration)

        async def sender():
            for index, (channel, gap) in enumerate(sends):
                channels[channel].send((index, kernel.now()))
                await kernel.sleep(gap)

        async def receiver(channel, count):
            received = []
            for _ in range(count):
                index, sent_at = await channels[channel].recv()
                received.append((index, kernel.now() - sent_at))
            return received

        counts = [sum(1 for channel, _ in sends if channel == c) for c in range(len(latencies))]
        receivers = [kernel.spawn(receiver(c, n)) for c, n in enumerate(counts)]
        await kernel.gather(sender(), *[sleeper(d) for d in sleeps])
        return overslept, [await handle.join() for handle in receivers]

    overslept, received = kernel.run(main())
    assert min(overslept) >= -slack
    for latency, deliveries in zip(latencies, received):
        indexes = [index for index, _ in deliveries]
        assert indexes == sorted(indexes)
        assert all(transit >= latency - slack for _, transit in deliveries)


def test_waits_shorter_than_a_loop_turn_set_no_timer() -> None:
    """At time_scale=1e-6, 0.01 model seconds are 10 wall nanoseconds:
    above the clock's resolution, so not a zero delay, yet passed by the
    time the loop comes back to the waiter.  Such a sleep and such a
    transit each cost one loop turn and no ``call_at``/``call_later``."""
    kernel = AsyncioKernel(time_scale=1e-6)

    async def main():
        loop = asyncio.get_running_loop()
        timers = 0
        call_at = loop.call_at  # call_later goes through it too

        def counted_call_at(*args, **kwargs):
            nonlocal timers
            timers += 1
            return call_at(*args, **kwargs)

        loop.call_at = counted_call_at
        try:
            channel = kernel.channel("c", latency=0.01)
            for message in range(100):
                await kernel.sleep(0.01)
                channel.send(message)
            received = [await channel.recv() for _ in range(100)]
        finally:
            del loop.call_at
        return timers, received

    timers, received = kernel.run(main())
    assert received == list(range(100))
    assert timers == 0
