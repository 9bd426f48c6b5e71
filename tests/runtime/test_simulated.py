"""Unit tests for the discrete-event virtual-time kernel."""

import asyncio

import pytest

from repro.runtime.simulated import SimKernel
from repro.util.errors import DeadlockError, KernelError


def test_sleep_advances_virtual_clock() -> None:
    kernel = SimKernel()

    async def main():
        await kernel.sleep(5.0)
        first = kernel.now()
        await kernel.sleep(2.5)
        return first, kernel.now()

    first, second = kernel.run(main())
    assert first == pytest.approx(5.0)
    assert second == pytest.approx(7.5)


def test_zero_sleep_is_allowed() -> None:
    kernel = SimKernel()

    async def main():
        await kernel.sleep(0.0)
        return kernel.now()

    assert kernel.run(main()) == 0.0


def test_negative_sleep_rejected() -> None:
    kernel = SimKernel()

    async def main():
        await kernel.sleep(-1.0)

    with pytest.raises(KernelError):
        kernel.run(main())


def test_run_returns_result() -> None:
    kernel = SimKernel()

    async def main():
        return 42

    assert kernel.run(main()) == 42


def test_run_propagates_exception() -> None:
    kernel = SimKernel()

    async def main():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        kernel.run(main())


def test_parallel_sleeps_overlap_in_virtual_time() -> None:
    kernel = SimKernel()

    async def sleeper(duration):
        await kernel.sleep(duration)
        return kernel.now()

    async def main():
        return await kernel.gather(sleeper(10.0), sleeper(10.0), sleeper(10.0))

    finish_times = kernel.run(main())
    assert finish_times == [10.0, 10.0, 10.0]


def test_channel_fifo_order() -> None:
    kernel = SimKernel()

    async def main():
        channel = kernel.channel("c")
        for value in range(10):
            channel.send(value)
        return [await channel.recv() for _ in range(10)]

    assert kernel.run(main()) == list(range(10))


def test_channel_latency_delays_delivery() -> None:
    kernel = SimKernel()

    async def main():
        channel = kernel.channel("c", latency=3.0)
        channel.send("hello")
        message = await channel.recv()
        return message, kernel.now()

    message, time = kernel.run(main())
    assert message == "hello"
    assert time == pytest.approx(3.0)


def test_channel_recv_blocks_until_send() -> None:
    kernel = SimKernel()
    channel = kernel.channel("c")

    async def producer():
        await kernel.sleep(7.0)
        channel.send("late")

    async def main():
        kernel.spawn(producer())
        message = await channel.recv()
        return message, kernel.now()

    message, time = kernel.run(main())
    assert message == "late"
    assert time == pytest.approx(7.0)


def test_channel_multiple_receivers_each_get_one_message() -> None:
    kernel = SimKernel()
    channel = kernel.channel("c")
    received = []

    async def receiver(tag):
        received.append((tag, await channel.recv()))

    async def main():
        handles = [kernel.spawn(receiver(i), name=f"r{i}") for i in range(3)]
        await kernel.sleep(1.0)
        for value in ("a", "b", "c"):
            channel.send(value)
        for handle in handles:
            await handle.join()

    kernel.run(main())
    assert sorted(value for _, value in received) == ["a", "b", "c"]
    # FIFO wakeup: the first-parked receiver gets the first message.
    assert received[0] == (0, "a")


def test_semaphore_limits_concurrency() -> None:
    kernel = SimKernel()
    semaphore = kernel.semaphore(2)
    active = 0
    peak = 0

    async def worker():
        nonlocal active, peak
        await semaphore.acquire()
        active += 1
        peak = max(peak, active)
        await kernel.sleep(1.0)
        active -= 1
        semaphore.release()

    async def main():
        await kernel.gather(*[worker() for _ in range(6)])
        return kernel.now()

    finish = kernel.run(main())
    assert peak == 2
    # Six one-second jobs through two slots take three virtual seconds.
    assert finish == pytest.approx(3.0)


def test_semaphore_fifo_wakeup() -> None:
    kernel = SimKernel()
    semaphore = kernel.semaphore(1)
    order = []

    async def worker(tag):
        await semaphore.acquire()
        order.append(tag)
        await kernel.sleep(1.0)
        semaphore.release()

    async def main():
        handles = [kernel.spawn(worker(i)) for i in range(4)]
        for handle in handles:
            await handle.join()

    kernel.run(main())
    assert order == [0, 1, 2, 3]


def test_event_wakes_all_waiters() -> None:
    kernel = SimKernel()
    event = kernel.event()
    woken = []

    async def waiter(tag):
        await event.wait()
        woken.append((tag, kernel.now()))

    async def main():
        handles = [kernel.spawn(waiter(i)) for i in range(3)]
        await kernel.sleep(4.0)
        event.set()
        for handle in handles:
            await handle.join()

    kernel.run(main())
    assert [time for _, time in woken] == [4.0, 4.0, 4.0]
    assert event.is_set()


def test_event_wait_after_set_returns_immediately() -> None:
    kernel = SimKernel()

    async def main():
        event = kernel.event()
        event.set()
        await event.wait()
        return kernel.now()

    assert kernel.run(main()) == 0.0


def test_join_propagates_child_exception() -> None:
    kernel = SimKernel()

    async def failing():
        await kernel.sleep(1.0)
        raise RuntimeError("child failed")

    async def main():
        handle = kernel.spawn(failing())
        await handle.join()

    with pytest.raises(RuntimeError, match="child failed"):
        kernel.run(main())


def test_join_after_completion_returns_result() -> None:
    kernel = SimKernel()

    async def child():
        return "done"

    async def main():
        handle = kernel.spawn(child())
        await kernel.sleep(10.0)
        assert handle.done
        return await handle.join()

    assert kernel.run(main()) == "done"


def test_cancel_sleeping_task() -> None:
    kernel = SimKernel()
    cleanup_ran = []

    async def victim():
        try:
            await kernel.sleep(100.0)
        finally:
            cleanup_ran.append(kernel.now())

    async def main():
        handle = kernel.spawn(victim())
        await kernel.sleep(5.0)
        handle.cancel()
        with pytest.raises(asyncio.CancelledError):
            await handle.join()
        return kernel.now()

    finish = kernel.run(main())
    # Cancellation lands at cancel time, not after the 100 s sleep.
    assert finish == pytest.approx(5.0)
    assert cleanup_ran == [5.0]


def test_cancel_task_parked_on_channel() -> None:
    kernel = SimKernel()
    channel = kernel.channel("c")

    async def victim():
        await channel.recv()

    async def main():
        handle = kernel.spawn(victim())
        await kernel.sleep(1.0)
        handle.cancel()
        with pytest.raises(asyncio.CancelledError):
            await handle.join()
        # A message sent afterwards must not be swallowed by the corpse.
        channel.send("survivor")
        return await channel.recv()

    assert kernel.run(main()) == "survivor"


def test_cancel_finished_task_is_noop() -> None:
    kernel = SimKernel()

    async def child():
        return 1

    async def main():
        handle = kernel.spawn(child())
        await kernel.sleep(1.0)
        handle.cancel()
        return await handle.join()

    assert kernel.run(main()) == 1


def test_deadlock_detection_names_parked_tasks() -> None:
    kernel = SimKernel()
    channel = kernel.channel("orders")

    async def main():
        await channel.recv()

    with pytest.raises(DeadlockError, match="orders"):
        kernel.run(main())


def test_livelock_guard_raises(monkeypatch) -> None:
    monkeypatch.setattr("repro.runtime.simulated.MAX_EVENTS", 100)
    kernel = SimKernel()

    async def main():
        while True:
            await kernel.sleep(1.0)

    with pytest.raises(KernelError, match="events"):
        kernel.run(main())


def test_result_before_done_raises() -> None:
    kernel = SimKernel()

    async def child():
        await kernel.sleep(1.0)

    async def main():
        handle = kernel.spawn(child())
        handle.result()

    with pytest.raises(KernelError):
        kernel.run(main())


def test_foreign_awaitable_rejected() -> None:
    kernel = SimKernel()

    async def main():
        await asyncio.sleep(0)

    with pytest.raises((KernelError, RuntimeError)):
        kernel.run(main())


def test_gather_preserves_order_despite_finish_times() -> None:
    kernel = SimKernel()

    async def delayed(value, duration):
        await kernel.sleep(duration)
        return value

    async def main():
        return await kernel.gather(
            delayed("slow", 10.0), delayed("fast", 1.0), delayed("mid", 5.0)
        )

    assert kernel.run(main()) == ["slow", "fast", "mid"]


def test_determinism_identical_runs() -> None:
    def build_and_run():
        kernel = SimKernel()
        log = []

        async def worker(tag, period):
            for _ in range(5):
                await kernel.sleep(period)
                log.append((tag, kernel.now()))

        async def main():
            await kernel.gather(worker("a", 1.5), worker("b", 2.0), worker("c", 0.7))

        kernel.run(main())
        return log

    assert build_and_run() == build_and_run()


def test_a_resident_kernel_does_not_visit_its_parked_tasks(monkeypatch) -> None:
    """A resident engine keeps its warm child processes parked in the
    kernel between queries; a run must not walk them, at its end either."""
    from repro.runtime.simulated import SimTask

    kernel = SimKernel(resident=True)
    gate = kernel.event()

    async def parked() -> None:
        await gate.wait()

    async def park() -> None:
        for index in range(1000):
            kernel.spawn(parked(), name=f"warm-{index}")
        await kernel.sleep(0)

    kernel.run(park())
    visits = []
    done = SimTask.done
    monkeypatch.setattr(
        SimTask, "done", property(lambda task: visits.append(task.name) or done.fget(task))
    )

    async def trivial() -> int:
        return 42

    assert kernel.run(trivial()) == 42
    assert not any(name.startswith("warm-") for name in visits)
    monkeypatch.undo()

    async def release() -> None:
        gate.set()
        await kernel.sleep(0)

    kernel.run(release())
    assert not kernel._tasks  # the released tasks finished and left


def test_a_deadlock_names_the_parked_tasks_in_spawn_order() -> None:
    kernel = SimKernel(resident=True)
    never = kernel.event()

    async def wait() -> None:
        await never.wait()

    async def nap() -> None:
        await kernel.sleep(1.0)

    async def main() -> None:
        kernel.spawn(nap(), name="finishes")
        for name in ("c", "a", "b"):
            kernel.spawn(wait(), name=name)
        await never.wait()

    with pytest.raises(DeadlockError, match=r"parked: main<-event, c<-event, a<-event, b<-event$"):
        kernel.run(main())
