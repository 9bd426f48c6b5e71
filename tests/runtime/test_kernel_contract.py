"""The kernel contract, held to both kernels.

Operator code only talks to :mod:`repro.runtime.base`, so every property
here must hold on the discrete-event ``SimKernel`` and on the real-time
``AsyncioKernel`` alike.  Hypothesis checks the scheduling properties
first (delivery, capacity, the clock); the cases after them pin the paths the
real-time primitives implement themselves — handing a message straight to
a parked receiver, handing a released slot straight to a parked waiter,
and the loop turn a zero-delay sleep yields — including what a
cancellation between the hand-over and the resume must not lose, and the
one join rule: a cancelled joiner cancels the task it joins.
"""

import asyncio
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.worlds import build_world
from repro import (
    QUERY1_SQL,
    WSMED,
    AdaptationParams,
    CacheConfig,
    ProcessCosts,
    QueryEngine,
    QueryOptions,
)
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel

# 100 model seconds are 1 wall millisecond: the hypothesis runs stay fast.
KERNELS = {
    "sim": SimKernel,
    "asyncio": lambda: AsyncioKernel(time_scale=1e-5),
}
kernels = pytest.mark.parametrize("make_kernel", KERNELS.values(), ids=KERNELS.keys())


def _early(kernel) -> float:
    """Model seconds a timer may fire early by: none in virtual time, the
    loop clock's resolution (scaled up, with room) in real time."""
    return 1e-3 if isinstance(kernel, AsyncioKernel) else 1e-9


def _take_all(kernel, semaphore, slots):
    """Acquire ``slots`` slots; a deadline turns a lost slot into a failure."""

    async def take():
        for _ in range(slots):
            await semaphore.acquire()

    return kernel.wait_for(take(), timeout=1.0)


# -- scheduling properties --------------------------------------------------------


schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@kernels
@given(schedule=schedules)
@settings(max_examples=60, deadline=None)
def test_every_message_delivered_exactly_once_and_never_early(make_kernel, schedule) -> None:
    kernel = make_kernel()
    latency = schedule[0][1]
    deliveries = []

    async def main():
        channel = kernel.channel("c", latency=latency)

        async def sender(index, offset):
            await kernel.sleep(offset)
            channel.send((index, kernel.now()))

        async def receiver(expected):
            for _ in range(expected):
                index, sent_at = await channel.recv()
                deliveries.append((index, sent_at, kernel.now()))

        handles = [
            kernel.spawn(sender(i, offset)) for i, (offset, _) in enumerate(schedule)
        ]
        handles.append(kernel.spawn(receiver(len(schedule))))
        for handle in handles:
            await handle.join()

    kernel.run(main())
    assert sorted(index for index, _, _ in deliveries) == list(range(len(schedule)))
    for _, sent_at, received_at in deliveries:
        assert received_at >= sent_at + latency - _early(kernel)


@kernels
@given(
    durations=st.lists(
        st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=25,
    ),
    slots=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_semaphore_never_exceeds_capacity(make_kernel, durations, slots) -> None:
    kernel = make_kernel()
    active = 0
    peak = 0

    async def main():
        semaphore = kernel.semaphore(slots)

        async def worker(duration):
            nonlocal active, peak
            await semaphore.acquire()
            active += 1
            peak = max(peak, active)
            await kernel.sleep(duration)
            active -= 1
            semaphore.release()

        await kernel.gather(*[worker(d) for d in durations])
        await _take_all(kernel, semaphore, slots)  # all slots returned

    kernel.run(main())
    assert peak <= slots
    assert active == 0


@kernels
@given(
    sleeps=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_virtual_clock_is_monotone_and_ends_at_max_finish(make_kernel, sleeps) -> None:
    kernel = make_kernel()
    observed = []

    async def worker(duration):
        await kernel.sleep(duration)
        observed.append(kernel.now())

    async def main():
        await kernel.gather(*[worker(d) for d in sleeps])
        return kernel.now()

    final = kernel.run(main())
    assert observed == sorted(observed)
    assert final >= max(sleeps) - _early(kernel)


# -- channels ---------------------------------------------------------------------


@kernels
@pytest.mark.parametrize("latency", [0.0, 5.0])
def test_channel_delivers_exactly_once_in_fifo_order(make_kernel, latency) -> None:
    kernel = make_kernel()

    async def main():
        channel = kernel.channel("c", latency=latency)

        async def receiver(count):
            return [await channel.recv() for _ in range(count)]

        early = kernel.spawn(receiver(3), name="parked")  # parks before any send
        await kernel.sleep(1.0)
        for message in range(6):
            channel.send(message)
        late = kernel.spawn(receiver(3), name="late")
        return await early.join(), await late.join()

    early, late = kernel.run(main())
    assert sorted(early + late) == list(range(6))
    # Handed out in send order: each receiver sees its messages in order,
    # and the receiver parked before the sends is served first.
    assert early == sorted(early) and late == sorted(late)
    assert early[0] == 0


@kernels
def test_a_receiver_cancelled_after_the_hand_over_loses_nothing(make_kernel) -> None:
    kernel = make_kernel()

    async def main():
        channel = kernel.channel("c")

        async def receive():
            return await channel.recv()

        receiver = kernel.spawn(receive(), name="receiver")
        await kernel.sleep(1.0)  # parked on recv
        channel.send("first")  # handed to the parked receiver ...
        channel.send("second")
        receiver.cancel()  # ... which is cancelled before it resumes
        with pytest.raises(asyncio.CancelledError):
            await receiver.join()
        return [await channel.recv(), await channel.recv()]

    assert kernel.run(main()) == ["first", "second"]


# -- semaphores -------------------------------------------------------------------


@kernels
def test_semaphore_grants_in_fifo_order(make_kernel) -> None:
    kernel = make_kernel()
    order = []

    async def main():
        semaphore = kernel.semaphore(1)
        await semaphore.acquire()

        async def waiter(index):
            await semaphore.acquire()
            order.append(index)
            await kernel.sleep(1.0)
            semaphore.release()

        handles = []
        for index in range(5):
            handles.append(kernel.spawn(waiter(index), name=f"w{index}"))
            await kernel.sleep(0.5)  # park in index order
        semaphore.release()
        for handle in handles:
            await handle.join()
        await _take_all(kernel, semaphore, 1)

    kernel.run(main())
    assert order == [0, 1, 2, 3, 4]


@kernels
def test_a_waiter_granted_then_cancelled_passes_its_slot_on(make_kernel) -> None:
    kernel = make_kernel()
    entered = []

    async def main():
        semaphore = kernel.semaphore(1)
        await semaphore.acquire()

        async def waiter(name):
            await semaphore.acquire()
            try:
                entered.append(name)
                await kernel.sleep(5.0)
            finally:
                semaphore.release()

        first = kernel.spawn(waiter("first"), name="first")
        await kernel.sleep(1.0)
        second = kernel.spawn(waiter("second"), name="second")
        await kernel.sleep(1.0)  # both parked, first in front
        semaphore.release()  # granted to the first ...
        first.cancel()  # ... which is cancelled before it resumes
        with pytest.raises(asyncio.CancelledError):
            await first.join()
        await second.join()
        await _take_all(kernel, semaphore, 1)  # and the slot is back

    kernel.run(main())
    assert entered[-1] == "second"


# -- events and sleeps ------------------------------------------------------------


@kernels
def test_an_event_wakes_every_waiter(make_kernel) -> None:
    kernel = make_kernel()
    woken = []

    async def main():
        event = kernel.event()

        async def waiter(index):
            await event.wait()
            woken.append(index)

        handles = [kernel.spawn(waiter(i)) for i in range(4)]
        await kernel.sleep(1.0)
        assert not event.is_set() and woken == []
        event.set()
        for handle in handles:
            await handle.join()
        await event.wait()  # a set event does not block
        return event.is_set()

    assert kernel.run(main()) is True
    assert sorted(woken) == [0, 1, 2, 3]


@kernels
def test_a_zero_sleep_lets_a_ready_task_run_first(make_kernel) -> None:
    kernel = make_kernel()
    ran = []

    async def ready():
        ran.append("ready")

    async def main():
        handle = kernel.spawn(ready())
        assert ran == []
        await kernel.sleep(0)
        seen = list(ran)
        await handle.join()
        return seen

    assert kernel.run(main()) == ["ready"]


# -- joins -------------------------------------------------------------------------


RESIDENT_KERNELS = {
    "sim": lambda: SimKernel(resident=True),
    "asyncio": lambda: AsyncioKernel(time_scale=1e-5, resident=True),
}


def _running(kernel, prefix: str) -> list[str]:
    """Names of the kernel's unfinished tasks that start with ``prefix``."""
    if isinstance(kernel, SimKernel):
        names = [task.name for task in kernel._tasks]
    else:
        names = [task.get_name() for task in asyncio.all_tasks() if not task.done()]
    return sorted(name for name in names if name.startswith(prefix))


@kernels
def test_a_joiner_cancelled_mid_join_leaves_its_joinee_cancelled(make_kernel) -> None:
    """One join rule on both kernels: cancelling a task parked on
    ``join()`` cancels the task it joins, as awaiting an ``asyncio.Task``
    does."""
    kernel = make_kernel()

    async def main():
        async def idle():
            await kernel.sleep(1e6)

        joinee = kernel.spawn(idle(), name="joinee")

        async def wait_on():
            await joinee.join()

        joiner = kernel.spawn(wait_on(), name="joiner")
        await kernel.sleep(1.0)  # the joiner is parked on the join
        joiner.cancel()
        with pytest.raises(asyncio.CancelledError):
            await joiner.join()
        with pytest.raises(asyncio.CancelledError):
            await joinee.join()
        return joinee.done

    assert kernel.run(main()) is True


@pytest.mark.parametrize(
    "make_kernel", RESIDENT_KERNELS.values(), ids=RESIDENT_KERNELS.keys()
)
def test_a_union_whose_consumer_is_cancelled_leaves_no_branch_running(make_kernel) -> None:
    world = build_world()
    kernel = make_kernel()
    engine = QueryEngine(world.build(), kernel=kernel)

    async def main():
        stream = engine.stream(world.or_sql(), options=QueryOptions(mode="central"))
        consumer = kernel.spawn(stream.collect(), name="consumer")
        for _ in range(100):  # until the union has spawned its branches
            if _running(kernel, "union-"):
                break
            await kernel.sleep(0.1)
        started = _running(kernel, "union-")
        consumer.cancel()
        with pytest.raises(asyncio.CancelledError):
            await consumer.join()
        for _ in range(10):  # a few turns for the cancels, not for the calls
            await kernel.sleep(0)
        return started, _running(kernel, "union-")

    try:
        started, left = kernel.run(main())
    finally:
        engine.close()
    assert started == ["union-0", "union-1"]
    assert left == []


# -- the scheduler's resume order, pinned ------------------------------------------


class _ResumeLog(SimKernel):
    """A SimKernel that notes ``(virtual time, task name)`` each time it
    resumes a task."""

    def __init__(self, *, resident: bool = False) -> None:
        super().__init__(resident=resident)
        self.resumed: list[str] = []

    def _step(self, task, value=None, exc=None) -> None:
        if not task._done:
            self.resumed.append(f"{self._now!r} {task.name}")
        super()._step(task, value, exc)


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _query1_resume_orders() -> dict[str, tuple[int, str]]:
    system = WSMED(profile="paper")
    system.import_all()
    orders = {}
    for label, options in (
        ("central", QueryOptions(mode="central")),
        ("parallel", QueryOptions(mode="parallel", fanouts=[5, 4])),
        ("adaptive", QueryOptions(mode="adaptive")),
    ):
        kernel = _ResumeLog()
        system.sql(QUERY1_SQL, options=options.replace(kernel=kernel))
        orders[label] = (len(kernel.resumed), _digest(kernel.resumed))
    return orders


def _engine_resume_order() -> tuple[int, str]:
    """Join, aggregate and LIMIT on one resident engine, each run cold and
    then warm, so warm trees and their late messages are in the order."""
    world = build_world()
    kernel = _ResumeLog(resident=True)
    engine = QueryEngine(world.build(), kernel=kernel)
    try:
        for _ in range(2):
            engine.sql(world.join_sql(), options=QueryOptions(mode="adaptive"))
            engine.sql(
                world.aggregate_sql(), options=QueryOptions(mode="parallel", fanouts=[3, 2])
            )
            engine.sql(
                world.chain_sql(limit=4), options=QueryOptions(mode="parallel", fanouts=[2, 2])
            )
    finally:
        engine.close()
    return len(kernel.resumed), _digest(kernel.resumed)


def _pool_path_resume_orders() -> dict[str, tuple[int, str, float, int]]:
    """Query1 down the pool paths the default costs never take: batched
    dispatch, the adaptive drop stage (unbatched and batched) and
    round-robin dispatch, with each run's model seconds and drop stages."""
    system = WSMED(profile="paper")
    system.import_all()
    batched = ProcessCosts(batch_size=4)
    drop = AdaptationParams(drop_stage=True)
    orders = {}
    for label, options in (
        ("batched", QueryOptions(mode="parallel", fanouts=[5, 4], process_costs=batched)),
        ("drop", QueryOptions(mode="adaptive", adaptation=drop)),
        (
            "batched drop",
            QueryOptions(mode="adaptive", adaptation=drop, process_costs=batched),
        ),
        (
            "round-robin",
            QueryOptions(
                mode="parallel",
                fanouts=[5, 4],
                process_costs=ProcessCosts(dispatch="round_robin"),
            ),
        ),
    ):
        kernel = _ResumeLog()
        result = system.sql(QUERY1_SQL, options=options.replace(kernel=kernel))
        orders[label] = (
            len(kernel.resumed),
            _digest(kernel.resumed),
            round(result.elapsed, 4),
            result.tree.drop_stages,
        )
    return orders


def _warm_affinity_resume_order() -> tuple[int, str]:
    """One cold and one warm Query1 ``{5,4}`` on a resident engine under
    cache-affinity routing with pipelined dispatch and the call memo on."""
    system = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    system.import_all()
    kernel = _ResumeLog(resident=True)
    engine = QueryEngine(system, kernel=kernel)
    try:
        for _ in range(2):
            engine.sql(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4]))
    finally:
        engine.close()
    return len(kernel.resumed), _digest(kernel.resumed)


def test_task_resume_order_is_pinned() -> None:
    """Which task the scheduler resumes, and at what virtual time, over the
    paper's Query1 (also batched, dropping children, round-robin and on a
    warm cache-affinity engine) and a resident engine's join, aggregate
    and LIMIT: a change to the kernel, the message path or the pool may make
    a step cheaper, never move, add or drop one."""
    assert _query1_resume_orders() == {
        "central": (934, "5741903e7f4bfd3d"),
        "parallel": (3195, "9ad64a53de147ad0"),
        "adaptive": (3387, "08ffb8b7c2b23bca"),
    }
    assert _engine_resume_order() == (2198, "fdee55a3883bcf00")
    # The paths that batch, pipeline, drop a child or deal round-robin.
    assert _pool_path_resume_orders() == {
        "batched": (2476, "41bcfdc7e8927d1d", 66.1032, 0),
        "drop": (3590, "06a79da8f367a52c", 59.8718, 17),
        "batched drop": (2881, "c3545ac786cc7d52", 70.1076, 20),
        "round-robin": (2995, "2a3ac1a96502ac63", 61.0228, 0),
    }
    assert _warm_affinity_resume_order() == (2999, "e96ef3389fd07d04")
