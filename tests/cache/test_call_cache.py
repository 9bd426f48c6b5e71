"""Unit tests for the web-service call memo.

Every behavioral test runs under both kernels: the memo keys TTLs and
single-flight parking off kernel primitives only, so it must behave the
same under virtual time and under ``asyncio``.
"""

from __future__ import annotations

import pytest

from repro.cache import (
    COLLAPSED,
    HIT,
    MISS,
    CacheConfig,
    CacheStats,
    CallMemo,
    stable_hash,
)
from repro.obs.run import MessageStats, QueryRun
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError, ServiceFault


@pytest.fixture(params=["sim", "asyncio"])
def kernel(request):
    if request.param == "sim":
        return SimKernel()
    return AsyncioKernel(time_scale=0.001)


class Invoker:
    """A fake broker call that counts invocations."""

    def __init__(self, kernel, delay: float = 0.0, error: Exception | None = None):
        self.kernel = kernel
        self.delay = delay
        self.error = error
        self.calls = 0

    async def __call__(self):
        self.calls += 1
        if self.delay:
            await self.kernel.sleep(self.delay)
        if self.error is not None:
            raise self.error
        return f"result-{self.calls}"


# -- configuration -----------------------------------------------------------


def test_config_rejects_bad_bounds() -> None:
    with pytest.raises(PlanError):
        CacheConfig(max_entries=0)
    with pytest.raises(PlanError):
        CacheConfig(ttl=0.0)
    with pytest.raises(PlanError):
        CacheConfig(ttl=-1.0)
    for ttl in (float("nan"), float("inf")):
        with pytest.raises(PlanError):
            CacheConfig(ttl=ttl)


def test_config_disabled_by_default() -> None:
    assert CacheConfig().enabled is False


# -- hit / miss --------------------------------------------------------------


def test_hit_after_miss(kernel) -> None:
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    stats = CacheStats()
    invoke = Invoker(kernel)

    async def main():
        first = await cache.call(("op", ("a",)), invoke, stats)
        second = await cache.call(("op", ("a",)), invoke, stats)
        third = await cache.call(("op", ("b",)), invoke, stats)
        return first, second, third

    first, second, third = kernel.run(main())
    assert first == ("result-1", MISS)
    assert second == ("result-1", HIT)
    assert third == ("result-2", MISS)
    assert invoke.calls == 2
    assert stats.hits == 1
    assert stats.misses == 2
    assert stats.lookups == 3
    assert stats.calls_avoided == 1
    assert stats.hit_rate == pytest.approx(1 / 3)


def test_unhashable_key_bypasses_cache(kernel) -> None:
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    stats = CacheStats()
    invoke = Invoker(kernel)

    async def main():
        for _ in range(2):
            await cache.call(("op", (["unhashable"],)), invoke, stats)

    kernel.run(main())
    assert invoke.calls == 2
    assert len(cache) == 0
    assert stats.misses == 2


# -- LRU eviction ------------------------------------------------------------


def test_lru_evicts_least_recently_used(kernel) -> None:
    cache = CallMemo(kernel, CacheConfig(enabled=True, max_entries=2))
    stats = CacheStats()
    invoke = Invoker(kernel)

    async def main():
        await cache.call("a", invoke, stats)
        await cache.call("b", invoke, stats)
        await cache.call("a", invoke, stats)  # refresh a: b is now the LRU entry
        await cache.call("c", invoke, stats)  # evicts b
        _, a_outcome = await cache.call("a", invoke, stats)
        _, b_outcome = await cache.call("b", invoke, stats)
        return a_outcome, b_outcome

    a_outcome, b_outcome = kernel.run(main())
    assert a_outcome == HIT
    assert b_outcome == MISS
    assert len(cache) == 2
    assert stats.evictions == 2  # c pushed out b, then b pushed out c


# -- TTL on the model clock ---------------------------------------------------


def test_ttl_expires_on_model_clock() -> None:
    kernel = SimKernel()
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    stats = CacheStats()
    invoke = Invoker(kernel)

    async def main():
        await cache.call("k", invoke, stats, ttl=10.0)
        await kernel.sleep(5.0)
        _, fresh = await cache.call("k", invoke, stats, ttl=10.0)
        await kernel.sleep(6.0)  # 11 model seconds after the store
        _, stale = await cache.call("k", invoke, stats, ttl=10.0)
        return fresh, stale

    fresh, stale = kernel.run(main())
    assert fresh == HIT
    assert stale == MISS
    assert invoke.calls == 2
    assert stats.expirations == 1


def test_ttl_under_realtime_kernel() -> None:
    # Same schedule, real concurrency: TTLs are model seconds, so at
    # scale 0.001 an 11-model-second wait still expires a 10s TTL.
    kernel = AsyncioKernel(time_scale=0.001)
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    invoke = Invoker(kernel)

    async def main():
        await cache.call("k", invoke, ttl=10.0)
        await kernel.sleep(11.0)
        _, outcome = await cache.call("k", invoke, ttl=10.0)
        return outcome

    assert kernel.run(main()) == MISS
    assert invoke.calls == 2


def test_ttl_is_per_entry() -> None:
    """One memo serves queries with different ttls: each entry keeps the
    lifetime of the query that stored it."""
    kernel = SimKernel()
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    invoke = Invoker(kernel)

    async def main():
        await cache.call("short", invoke, ttl=1.0)
        await cache.call("long", invoke, ttl=100.0)
        await cache.call("forever", invoke)
        await kernel.sleep(50.0)
        return [(await cache.call(key, invoke))[1] for key in ("short", "long", "forever")]

    assert kernel.run(main()) == [MISS, HIT, HIT]


# -- single-flight collapsing -------------------------------------------------


def test_concurrent_identical_calls_collapse(kernel) -> None:
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    stats = CacheStats()
    invoke = Invoker(kernel, delay=1.0)

    async def one():
        return await cache.call("hot", invoke, stats)

    async def main():
        return await kernel.gather(*[one() for _ in range(5)])

    results = kernel.run(main())
    assert invoke.calls == 1
    values = {value for value, _ in results}
    assert values == {"result-1"}
    outcomes = sorted(outcome for _, outcome in results)
    assert outcomes == [COLLAPSED] * 4 + [MISS]
    assert stats.collapsed == 4
    assert stats.misses == 1


def test_failed_leader_does_not_poison_waiters(kernel) -> None:
    """A leader's fault is its own: every waiter wakes, re-checks, and one
    of them leads the call again; the rest collapse onto that one."""
    fault = ServiceFault("boom", retriable=True)
    cache = CallMemo(kernel, CacheConfig(enabled=True))
    stats = CacheStats()
    invoke = Invoker(kernel, delay=1.0, error=fault)

    async def one():
        try:
            return await cache.call("hot", invoke, stats)
        except ServiceFault as error:
            invoke.error = None  # the broker recovers after one fault
            return str(error)

    async def main():
        return await kernel.gather(*[one() for _ in range(3)])

    results = kernel.run(main())
    assert results[0] == "boom"  # only the first leader saw the fault
    assert sorted(results[1:]) == [("result-2", COLLAPSED), ("result-2", MISS)]
    assert invoke.calls == 2
    assert stats.failures == 1
    assert stats.misses == 2  # the failed leader, then the new one
    assert stats.collapsed == 1

    # Failures are not memoized; the second leader's result is.
    value, outcome = kernel.run(cache.call("hot", invoke, stats))
    assert (value, outcome) == ("result-2", HIT)
    assert invoke.calls == 2


# -- stats plumbing ----------------------------------------------------------


def test_cache_stats_merge_and_rates() -> None:
    run = QueryRun(cache_stats=CacheStats(hits=3, misses=1))
    run.absorb(([], None, CacheStats(hits=1, misses=1, collapsed=2, evictions=4), MessageStats()))
    stats = run.cache_stats
    assert stats.hits == 4
    assert stats.misses == 2
    assert stats.collapsed == 2
    assert stats.evictions == 4
    assert stats.lookups == 8
    assert stats.calls_avoided == 6
    # collapsed lookups avoided a broker call too, so they count as hits
    assert stats.hit_rate == pytest.approx(6 / 8)
    assert CacheStats().hit_rate == 0.0


def test_stable_hash_is_deterministic() -> None:
    key = ("uri", "Zipcodes", "GetPlacesInside", ("80840",))
    assert stable_hash(key) == stable_hash(("uri", "Zipcodes", "GetPlacesInside", ("80840",)))
    assert stable_hash(key) != stable_hash(("uri", "Zipcodes", "GetPlacesInside", ("30301",)))
    assert stable_hash(key) >= 0
