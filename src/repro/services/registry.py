"""Endpoint wiring and named cost profiles.

A :class:`ServiceRegistry` bundles the synthetic geo database, the four
providers, their parsed WSDL documents, and a cost profile.  ``bind``
attaches all of it to a kernel run as a :class:`ServiceBroker`.

Profiles
--------
``paper``
    Calibrated so the central plans land near the paper's measurements
    (Query1 ~245 s, Query2 ~2413 s) and server capacities create the
    paper's interior optimum in the fanout grid.  EXPERIMENTS.md records
    the resulting paper-vs-measured numbers.
``fast``
    All time constants divided by 100 — same *shape*, used by unit and
    integration tests to keep virtual times small and readable.
``uncontended``
    The ``paper`` constants with effectively unlimited server capacity.
    Used by the ablation bench: without capacity limits the best tree is
    simply the largest one, demonstrating that server contention is what
    creates the optimum the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.base import Kernel
from repro.services.broker import ServiceBroker
from repro.services.geodata import GeoConfig, GeoDatabase
from repro.services.latency import EndpointProfile
from repro.services.providers import (
    GeoPlacesProvider,
    TerraServiceProvider,
    USZipProvider,
    ZipcodesProvider,
)
from repro.services.wsdl import WsdlDocument, parse_wsdl
from repro.util.errors import UnknownServiceError


@dataclass(frozen=True)
class ServiceCosts:
    """Cost description of one service: capacity + per-operation profiles."""

    capacity: int
    operations: dict[str, EndpointProfile]

    def scaled(self, factor: float) -> "ServiceCosts":
        return ServiceCosts(
            capacity=self.capacity,
            operations={
                name: profile.scaled(factor)
                for name, profile in self.operations.items()
            },
        )

    def with_capacity(self, capacity: int) -> "ServiceCosts":
        return ServiceCosts(capacity=capacity, operations=dict(self.operations))

    def without_contention(self) -> "ServiceCosts":
        """Unlimited capacity and no load degradation (ablation profile)."""
        from dataclasses import replace

        return ServiceCosts(
            capacity=1_000_000,
            operations={
                name: replace(
                    profile, overload_penalty=0.0, overload_quadratic=0.0
                )
                for name, profile in self.operations.items()
            },
        )


# The calibrated paper profile.
#
# Sequential per-call times (what the central plans see):
#   GetAllStates    ~2.3 s   (one call)
#   GetPlacesWithin ~1.5 s   (50 calls   -> ~75 s)
#   GetPlaceList    ~0.65 s  (260 calls  -> ~168 s)  => Query1 central ~245 s
#   GetInfoByState  ~40 s    (50 calls   -> ~2000 s; USZip returns every
#                             zip code of a state in one giant string)
#   GetPlacesInside ~0.08 s  (4950 calls -> ~405 s)  => Query2 central ~2410 s
#
# Contention model: every service is processor-sharing (many worker
# slots) but *degrades* linearly + quadratically with concurrent load
# (``overload_penalty``/``overload_quadratic`` above ``degrade_above``).
# The quadratic term is what produces the paper's interior optimum in the
# fanout grids: Query1's best tree lands at {5,4} (paper: {5,4}, 56.4 s)
# and Query2's at {4,3} (paper: {4,3}, 1243.9 s).
_PAPER_COSTS: dict[str, ServiceCosts] = {
    "GeoPlaces": ServiceCosts(
        capacity=40,
        operations={
            "GetAllStates": EndpointProfile(
                rtt=0.6,
                setup=0.05,
                service_time=1.2,
                per_row=0.01,
                jitter=0.05,
                fanout_hint=50.0,
            ),
            "GetPlacesWithin": EndpointProfile(
                rtt=0.45,
                setup=0.05,
                service_time=1.0,
                jitter=0.05,
                overload_penalty=0.6,
                overload_quadratic=0.08,
                degrade_above=1,
                fanout_hint=5.2,
            ),
        },
    ),
    "TerraService": ServiceCosts(
        capacity=40,
        operations={
            "GetPlaceList": EndpointProfile(
                rtt=0.225,
                setup=0.02,
                service_time=0.40,
                jitter=0.05,
                overload_penalty=0.2,
                overload_quadratic=0.018,
                degrade_above=1,
                fanout_hint=3.0,
            ),
        },
    ),
    "USZip": ServiceCosts(
        capacity=40,
        operations={
            "GetInfoByState": EndpointProfile(
                rtt=1.5,
                setup=0.1,
                service_time=38.4,
                jitter=0.05,
                overload_penalty=0.24,
                overload_quadratic=0.068,
                degrade_above=1,
                fanout_hint=99.0,
            ),
        },
    ),
    "Zipcodes": ServiceCosts(
        capacity=40,
        operations={
            "GetPlacesInside": EndpointProfile(
                rtt=0.05,
                setup=0.01,
                service_time=0.0228,
                jitter=0.05,
                overload_penalty=1.6,
                overload_quadratic=0.2,
                degrade_above=1,
                fanout_hint=2.0,
            ),
        },
    ),
}

_UNLIMITED = 1_000_000


def profile_by_name(name: str) -> dict[str, ServiceCosts]:
    """Return the per-service cost map for a named profile."""
    if name == "paper":
        return dict(_PAPER_COSTS)
    if name == "fast":
        return {svc: costs.scaled(0.01) for svc, costs in _PAPER_COSTS.items()}
    if name == "uncontended":
        return {
            svc: costs.without_contention() for svc, costs in _PAPER_COSTS.items()
        }
    raise UnknownServiceError(
        f"unknown cost profile {name!r}; known: paper, fast, uncontended"
    )


class ServiceRegistry:
    """The static world a query runs against: data, providers, costs.

    ``extra_providers`` lets applications plug additional simulated
    services in beside the standard four; each entry is either a provider
    instance or a factory called with the registry's geo database.  A
    provider exposes ``uri``, ``wsdl_text()`` and ``invoke()`` and needs a
    matching entry in ``costs`` keyed by its WSDL service name.
    """

    def __init__(
        self,
        geodata: GeoDatabase,
        costs: dict[str, ServiceCosts],
        extra_providers: tuple = (),
    ) -> None:
        self.geodata = geodata
        self.costs = costs
        self.providers = [
            provider_class(geodata)
            for provider_class in (
                GeoPlacesProvider,
                TerraServiceProvider,
                USZipProvider,
                ZipcodesProvider,
            )
        ]
        self.providers.extend(
            extra(geodata) if callable(extra) else extra
            for extra in extra_providers
        )
        self.documents: dict[str, WsdlDocument] = {
            provider.uri: parse_wsdl(provider.wsdl_text(), provider.uri)
            for provider in self.providers
        }

    def wsdl_uris(self) -> list[str]:
        return [provider.uri for provider in self.providers]

    def document(self, uri: str) -> WsdlDocument:
        try:
            return self.documents[uri]
        except KeyError:
            raise UnknownServiceError(f"no WSDL published at {uri!r}") from None

    def costs_for(self, service_name: str) -> ServiceCosts:
        try:
            return self.costs[service_name]
        except KeyError:
            raise UnknownServiceError(
                f"no cost description for service {service_name!r}"
            ) from None

    def bind(self, kernel: Kernel, *, seed: int = 2009) -> ServiceBroker:
        """Create a broker on ``kernel`` with every endpoint registered."""
        broker = ServiceBroker(kernel, seed=seed)
        for provider in self.providers:
            document = self.documents[provider.uri]
            costs = self.costs_for(document.service_name)
            broker.register(
                document,
                provider,
                capacity=costs.capacity,
                profiles=costs.operations,
            )
        return broker


def build_registry(
    profile: str = "paper",
    *,
    seed: int = 2009,
    geo_config: GeoConfig | None = None,
    capacity_overrides: dict[str, int] | None = None,
    extra_providers: tuple = (),
    extra_costs: dict[str, ServiceCosts] | None = None,
) -> ServiceRegistry:
    """Build the standard four-service world.

    ``capacity_overrides`` maps service names to replacement capacities —
    used by the contention ablation bench.  ``extra_providers`` /
    ``extra_costs`` add further simulated services beside the standard
    four (see ``examples/custom_service.py``).
    """
    costs = profile_by_name(profile)
    if capacity_overrides:
        for service, capacity in capacity_overrides.items():
            if service not in costs:
                raise UnknownServiceError(
                    f"capacity override for unknown service {service!r}"
                )
            costs[service] = costs[service].with_capacity(capacity)
    if extra_costs:
        costs.update(extra_costs)
    geodata = GeoDatabase(geo_config or GeoConfig(seed=seed))
    return ServiceRegistry(geodata, costs, extra_providers=extra_providers)
