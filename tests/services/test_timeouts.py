"""Tests for call timeouts and the kernel's wait_for primitive."""

import dataclasses

import pytest

from repro.runtime.simulated import SimKernel
from repro.services.providers import USZIP_URI
from repro.services.registry import ServiceCosts, ServiceRegistry, profile_by_name
from repro.services.geodata import GeoDatabase
from repro.util.errors import ServiceFault


def registry_with_uszip_timeout(timeout):
    costs = profile_by_name("paper")
    profile = costs["USZip"].operations["GetInfoByState"]
    costs["USZip"] = ServiceCosts(
        costs["USZip"].capacity,
        {"GetInfoByState": dataclasses.replace(profile, timeout=timeout)},
    )
    return ServiceRegistry(GeoDatabase(), costs)


def call_uszip(registry):
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def main():
        return await broker.call(USZIP_URI, "USZip", "GetInfoByState", ["Ohio"])

    return kernel, lambda: kernel.run(main())


def test_wait_for_returns_result_before_deadline() -> None:
    kernel = SimKernel()

    async def work():
        await kernel.sleep(2.0)
        return "done"

    async def main():
        return await kernel.wait_for(work(), timeout=10.0)

    assert kernel.run(main()) == "done"


def test_wait_for_times_out_and_cancels() -> None:
    kernel = SimKernel()
    cleanup = []

    async def work():
        try:
            await kernel.sleep(100.0)
        finally:
            cleanup.append(kernel.now())

    async def main():
        with pytest.raises(TimeoutError):
            await kernel.wait_for(work(), timeout=5.0)
        return kernel.now()

    assert kernel.run(main()) == pytest.approx(5.0)
    assert cleanup == [5.0]


def test_wait_for_propagates_body_exception() -> None:
    kernel = SimKernel()

    async def failing():
        raise ValueError("inner")

    async def main():
        await kernel.wait_for(failing(), timeout=5.0)

    with pytest.raises(ValueError, match="inner"):
        kernel.run(main())


def test_call_without_timeout_completes() -> None:
    # GetInfoByState takes ~40 model seconds; no timeout -> fine.
    registry = registry_with_uszip_timeout(None)
    kernel, run = call_uszip(registry)
    result = run()
    assert len(result) == 1 and isinstance(result[0][0], str)  # GetInfoByStateResult


def test_call_times_out_as_retriable_fault() -> None:
    registry = registry_with_uszip_timeout(5.0)
    _, run = call_uszip(registry)
    with pytest.raises(ServiceFault, match="timed out") as excinfo:
        run()
    assert excinfo.value.retriable


def test_timed_out_call_releases_server_capacity() -> None:
    # After a timeout the server slot must come back, or the next call
    # would deadlock the simulated kernel.
    registry = registry_with_uszip_timeout(5.0)
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def main():
        for _ in range(3):
            try:
                await broker.call(USZIP_URI, "USZip", "GetInfoByState", ["Ohio"])
            except ServiceFault:
                pass
        return kernel.now()

    elapsed = kernel.run(main())
    assert elapsed == pytest.approx(15.0, rel=0.01)


def test_generous_timeout_does_not_fire() -> None:
    registry = registry_with_uszip_timeout(500.0)
    _, run = call_uszip(registry)
    result = run()
    assert len(result) == 1


def test_timeout_validation() -> None:
    from repro.services.latency import EndpointProfile

    with pytest.raises(ValueError, match="timeout"):
        EndpointProfile(timeout=0.0)


def test_timeouts_are_counted() -> None:
    registry = registry_with_uszip_timeout(5.0)
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def main():
        timed_out = 0
        for _ in range(3):
            try:
                await broker.call(USZIP_URI, "USZip", "GetInfoByState", ["Ohio"])
            except ServiceFault:
                timed_out += 1
        return timed_out

    timed_out = kernel.run(main())
    assert timed_out == 3
    stats = broker.stats("GetInfoByState")
    assert stats.timeouts == 3
    assert stats.faults == 0
    assert stats.calls == 0  # none completed
