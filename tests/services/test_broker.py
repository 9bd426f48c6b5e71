"""Tests for the latency/contention broker under the simulated kernel."""

import pytest

from repro.parallel.faults import FaultInjection
from repro.runtime.simulated import SimKernel
from repro.services.latency import EndpointProfile
from repro.services.providers import GEOPLACES_URI, USZIP_URI, ZIPCODES_URI
from repro.services.registry import build_registry, profile_by_name
from repro.util.errors import PlanError, ServiceFault, UnknownServiceError


def run_calls(profile="fast", faulted=(), calls=None, capacity_overrides=None):
    """Run a list of (uri, service, operation, args) calls concurrently;
    the calls at the indexes in ``faulted`` fail with a retriable fault."""
    registry = build_registry(profile, capacity_overrides=capacity_overrides)
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def one(index, call):
        return await broker.call(*call, fault=index in faulted)

    async def main():
        return await kernel.gather(*[one(index, call) for index, call in enumerate(calls)])

    results = kernel.run(main())
    return kernel, broker, results


def test_call_returns_decoded_values() -> None:
    _, _, results = run_calls(
        calls=[(GEOPLACES_URI, "GeoPlaces", "GetAllStates", [])]
    )
    details = results[0]  # one row per GeoPlaceDetails of GetAllStatesResult
    assert len(details) == 50


def test_sequential_call_time_matches_profile() -> None:
    costs = profile_by_name("paper")["USZip"]
    profile = costs.operations["GetInfoByState"]
    registry = build_registry("paper")
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def main():
        await broker.call(USZIP_URI, "USZip", "GetInfoByState", ["Colorado"])
        return kernel.now()

    elapsed = kernel.run(main())
    expected = profile.sequential_call_time(rows=1)
    # Jitter is 5%, so the observed time is within 10% of the nominal cost.
    assert elapsed == pytest.approx(expected, rel=0.10)


def test_capacity_queues_concurrent_calls() -> None:
    # A service with 2 server slots makes six concurrent calls queue
    # three-deep (hard k-slot FIFO path of the broker).
    registry = build_registry("paper", capacity_overrides={"Zipcodes": 2})
    kernel = SimKernel()
    broker = registry.bind(kernel)
    call = (ZIPCODES_URI, "Zipcodes", "GetPlacesInside", ["80840"])

    async def main():
        await kernel.gather(*[broker.call(*call) for _ in range(6)])

    kernel.run(main())
    stats = broker.stats("GetPlacesInside")
    assert stats.calls == 6
    assert stats.queue_wait.maximum > 0.0


def test_overload_degradation_slows_concurrent_calls() -> None:
    # The paper-profile Zipcodes endpoint degrades under load: twelve
    # concurrent calls take visibly longer per call than one alone.
    registry = build_registry("paper")
    call = (ZIPCODES_URI, "Zipcodes", "GetPlacesInside", ["80840"])

    def mean_time(concurrency):
        kernel = SimKernel()
        broker = registry.bind(kernel)

        async def main():
            await kernel.gather(*[broker.call(*call) for _ in range(concurrency)])

        kernel.run(main())
        return broker.stats("GetPlacesInside").server_time.mean

    assert mean_time(12) > 2.0 * mean_time(1)


def test_uncontended_profile_removes_queueing() -> None:
    calls = [
        (ZIPCODES_URI, "Zipcodes", "GetPlacesInside", ["80840"]) for _ in range(6)
    ]
    _, broker, _ = run_calls(profile="uncontended", calls=calls)
    assert broker.stats("GetPlacesInside").queue_wait.maximum == 0.0


def test_stats_accumulate_rows_and_bytes() -> None:
    _, broker, _ = run_calls(
        calls=[(GEOPLACES_URI, "GeoPlaces", "GetAllStates", [])] * 2
    )
    stats = broker.stats("GetAllStates")
    assert stats.calls == 2
    assert stats.rows == 100
    assert stats.bytes_transferred > 0
    assert broker.total_calls() == 2


def test_unknown_uri_rejected() -> None:
    with pytest.raises(UnknownServiceError, match="no service registered"):
        run_calls(calls=[("http://nowhere", "X", "Y", [])])


def test_service_name_mismatch_rejected() -> None:
    with pytest.raises(UnknownServiceError, match="GeoPlaces"):
        run_calls(calls=[(GEOPLACES_URI, "Zipcodes", "GetAllStates", [])])


def test_fault_injection_raises_service_fault() -> None:
    calls = [(GEOPLACES_URI, "GeoPlaces", "GetAllStates", []) for _ in range(20)]
    with pytest.raises(ServiceFault, match="transiently"):
        run_calls(faulted={3}, calls=calls)


def test_service_fault_probability_validation() -> None:
    with pytest.raises(PlanError, match="service_fault_probability"):
        FaultInjection(service_fault_probability=1.5)


def test_capacity_override() -> None:
    calls = [
        (ZIPCODES_URI, "Zipcodes", "GetPlacesInside", ["80840"]) for _ in range(6)
    ]
    _, broker, _ = run_calls(
        profile="paper", calls=calls, capacity_overrides={"Zipcodes": 6}
    )
    assert broker.stats("GetPlacesInside").queue_wait.maximum == 0.0


def test_capacity_override_unknown_service_rejected() -> None:
    with pytest.raises(UnknownServiceError):
        build_registry("paper", capacity_overrides={"Mystery": 3})


def test_unknown_profile_rejected() -> None:
    with pytest.raises(UnknownServiceError):
        profile_by_name("warp-speed")


def test_deterministic_timing_across_runs() -> None:
    calls = [
        (ZIPCODES_URI, "Zipcodes", "GetPlacesInside", ["80840"]) for _ in range(4)
    ]
    first, _, _ = run_calls(profile="paper", calls=calls)
    second, _, _ = run_calls(profile="paper", calls=calls)
    assert first.now() == second.now()


def test_endpoint_profile_validation() -> None:
    with pytest.raises(ValueError):
        EndpointProfile(rtt=-1.0)
    with pytest.raises(ValueError):
        EndpointProfile(jitter=1.0)


def test_endpoint_profile_scaled() -> None:
    profile = EndpointProfile(rtt=1.0, setup=0.5, service_time=2.0, per_row=0.1)
    scaled = profile.scaled(0.01)
    assert scaled.rtt == pytest.approx(0.01)
    assert scaled.sequential_call_time(10) == pytest.approx(
        profile.sequential_call_time(10) * 0.01
    )


def test_injected_faults_are_counted() -> None:
    registry = build_registry("fast")
    kernel = SimKernel()
    broker = registry.bind(kernel)

    async def main():
        faulted = 0
        for index in range(20):
            try:
                await broker.call(
                    ZIPCODES_URI,
                    "Zipcodes",
                    "GetPlacesInside",
                    ["80840"],
                    fault=index % 2 == 0,
                )
            except ServiceFault:
                faulted += 1
        return faulted

    faulted = kernel.run(main())
    stats = broker.stats("GetPlacesInside")
    assert faulted == 10  # exactly the calls told to fault
    assert stats.faults == faulted
    assert stats.timeouts == 0
    assert stats.calls == 20 - faulted  # only completed calls count
