"""The service broker: the simulated network and server farm.

Every web-service call in the system goes through :meth:`ServiceBroker.call`:

1. the caller pays the message set-up cost and half the round trip,
2. the request queues for one of the service's ``capacity`` server slots
   (FIFO — this is where contention appears under high fanout),
3. the server holds the slot for the profile's service time (plus per-row
   time and seeded jitter) while computing the real result through the
   provider and round-tripping it through XML,
4. the response pays the other half of the round trip.

The broker also keeps per-operation statistics (call counts, queue waits,
busy time) that benchmarks and tests assert on — e.g. "Query2 makes more
than 5000 calls".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Awaitable

from repro.runtime.base import Kernel, Semaphore
from repro.services import soap
from repro.services.latency import EndpointProfile
from repro.services.wsdl import WsdlDocument
from repro.util.errors import ServiceFault, UnknownServiceError
from repro.util.rng import derive_rng
from repro.util.stats import RunningStat


@dataclass
class CallStats:
    """Aggregate statistics for one operation."""

    calls: int = 0
    rows: int = 0
    bytes_transferred: int = 0
    faults: int = 0  # injected transient ServiceFaults raised by the server
    timeouts: int = 0  # calls that lost the race against profile.timeout
    queue_wait: RunningStat = field(default_factory=RunningStat)
    server_time: RunningStat = field(default_factory=RunningStat)
    total_time: RunningStat = field(default_factory=RunningStat)


class CallRecorder:
    """Per-query view of broker statistics.

    The broker's own ``_stats`` dict aggregates every call it has ever
    served, which is the right scope for a broker bound to a single
    query run but corrupts results once several queries share one broker
    (the resident :class:`~repro.engine.QueryEngine`).  A recorder is a
    second sink with the same read surface (``stats`` / ``total_calls``
    / ``all_stats``): the broker mirrors each statistics write into the
    recorder of the query that issued the call, so concurrent queries
    see only their own traffic.
    """

    def __init__(self) -> None:
        self._stats: dict[str, CallStats] = {}

    def stats(self, operation: str) -> CallStats:
        return self._stats.get(operation) or self._stats.setdefault(operation, CallStats())

    def total_calls(self) -> int:
        return sum(stat.calls for stat in self._stats.values())

    def all_stats(self) -> dict[str, CallStats]:
        return dict(self._stats)

    def take(self) -> dict[str, CallStats] | None:
        """What was recorded since the last take, or None when nothing
        was.  The recorder restarts from zero in place: a call in flight
        still writes into its operation's :class:`CallStats`."""
        taken = {}
        for operation, stat in self._stats.items():
            if stat != CallStats():
                taken[operation] = CallStats(**vars(stat))
                stat.__init__()
        return taken or None

    def absorb(self, taken: dict[str, CallStats]) -> None:
        """Add another recorder's :meth:`take` to this one."""
        for operation, delta in taken.items():
            stat = self.stats(operation)
            for name, value in vars(delta).items():
                if isinstance(value, RunningStat):
                    getattr(stat, name).merge(value)
                else:
                    setattr(stat, name, getattr(stat, name) + value)


class _Endpoint:
    """One registered service host: provider + capacity + profiles."""

    def __init__(
        self,
        document: WsdlDocument,
        provider: Any,
        capacity: int,
        profiles: dict[str, EndpointProfile],
    ) -> None:
        if capacity < 1:
            raise UnknownServiceError(
                f"service {document.service_name!r} capacity must be >= 1"
            )
        self.document = document
        self.provider = provider
        self.capacity = capacity
        self.profiles = profiles
        self.slots: Semaphore | None = None  # bound to a kernel per run
        self.slots_generation = -1  # kernel generation the slots belong to
        self.concurrent = 0  # requests currently queued or in service

    def profile_for(self, operation: str) -> EndpointProfile:
        try:
            return self.profiles[operation]
        except KeyError:
            raise UnknownServiceError(
                f"no cost profile for operation {operation!r} of service "
                f"{self.document.service_name!r}"
            ) from None


class ServiceBroker:
    """Routes ``cwo`` calls to simulated endpoints under a kernel clock.

    One broker serves every query on its kernel (one on the one-shot
    path, all of a resident engine's).  Server-time jitter draws from one
    stream seeded by ``seed``; whether a call faults is the calling
    query's draw (``call(fault=)``), so a query's injected faults never
    move another query's timings.
    """

    def __init__(self, kernel: Kernel, *, seed: int = 2009) -> None:
        self.kernel = kernel
        self._endpoints: dict[str, _Endpoint] = {}
        self._stats: dict[str, CallStats] = {}
        self._rng = derive_rng(seed, "broker")

    # -- registration -----------------------------------------------------------

    def register(
        self,
        document: WsdlDocument,
        provider: Any,
        *,
        capacity: int,
        profiles: dict[str, EndpointProfile],
    ) -> None:
        """Register a provider under its WSDL document URI."""
        missing = set(document.operations) - set(profiles)
        if missing:
            raise UnknownServiceError(
                f"service {document.service_name!r} lacks profiles for: "
                f"{sorted(missing)}"
            )
        self._endpoints[document.uri] = _Endpoint(
            document, provider, capacity, profiles
        )

    def _endpoint(self, uri: str) -> _Endpoint:
        try:
            return self._endpoints[uri]
        except KeyError:
            known = ", ".join(sorted(self._endpoints))
            raise UnknownServiceError(
                f"no service registered at {uri!r}; registered: {known or '<none>'}"
            ) from None

    # -- statistics --------------------------------------------------------------

    def stats(self, operation: str) -> CallStats:
        return self._stats.get(operation) or self._stats.setdefault(operation, CallStats())

    def total_calls(self) -> int:
        return sum(stat.calls for stat in self._stats.values())

    def contention(self) -> dict[str, dict[str, float]]:
        """Measured queue pressure per called operation.

        For every operation that has served at least one call, report the
        endpoint's ``capacity`` alongside the mean queue wait and mean
        server time — the ratio of the two is how saturated the endpoint's
        slot queue runs.  The admission controller's AFF fanout cap
        (:meth:`repro.engine.admission.AdmissionController.fanout_cap`)
        derives its ceiling from this.
        """
        report: dict[str, dict[str, float]] = {}
        for endpoint in self._endpoints.values():
            for operation in endpoint.document.operations:
                stats = self._stats.get(operation)
                if stats is None or not stats.calls:
                    continue
                report[operation] = {
                    "capacity": endpoint.capacity,
                    "queue_wait_mean": stats.queue_wait.mean,
                    "server_time_mean": stats.server_time.mean,
                }
        return report

    # -- the call path -------------------------------------------------------------

    def _sinks(
        self, operation: str, recorder: CallRecorder | None
    ) -> list[CallStats]:
        """Statistics sinks for one call: broker-global plus per-query."""
        sinks = [self.stats(operation)]
        if recorder is not None:
            sinks.append(recorder.stats(operation))
        return sinks

    def call(
        self,
        uri: str,
        service: str,
        operation: str,
        arguments: list[Any],
        *,
        recorder: CallRecorder | None = None,
        obs=None,
        obs_span: int = -1,
        fault: bool = False,
    ) -> Awaitable[tuple[tuple, ...]]:
        """Invoke a web-service operation; the awaitable returns the
        answer's rows.

        This is the transport behind the ``cwo`` built-in of the paper's
        Fig 2 (line 14).  If the operation's profile declares a timeout,
        the whole call races a deadline and raises a retriable
        :class:`ServiceFault` when it loses.  When ``recorder`` is given,
        every statistics write is mirrored into it so a multi-query
        engine can attribute the call to the query that made it.  When an
        ``obs`` recorder is given, queue-wait and server-busy sub-spans are
        recorded under ``obs_span`` (the caller's web-service span).
        With ``fault`` the call fails with a retriable
        :class:`ServiceFault` once it has held a server slot for the
        service time (an injected fault, drawn by the calling query).
        Without a timeout the awaitable is :meth:`_perform`'s coroutine.
        """
        endpoint = self._endpoint(uri)
        document = endpoint.document
        if document.service_name != service:
            raise UnknownServiceError(
                f"URI {uri!r} serves {document.service_name!r}, not {service!r}"
            )
        wsdl_operation = document.operation(operation)
        profile = endpoint.profile_for(operation)
        performed = self._perform(
            endpoint, wsdl_operation, profile, arguments, recorder,
            obs=obs, obs_span=obs_span, fault=fault,
        )
        if profile.timeout is None:
            return performed
        return self._race(performed, service, operation, profile.timeout, recorder)

    async def _race(
        self, performed, service: str, operation: str, timeout: float,
        recorder: CallRecorder | None,
    ) -> tuple[tuple, ...]:
        """``performed`` against a deadline of ``timeout`` model seconds."""
        try:
            return await self.kernel.wait_for(performed, timeout)
        except TimeoutError:
            for sink in self._sinks(operation, recorder):
                sink.timeouts += 1
            raise ServiceFault(
                f"{service}.{operation} timed out after {timeout} model seconds",
                retriable=True,
            ) from None

    async def _perform(
        self,
        endpoint: _Endpoint,
        wsdl_operation,
        profile,
        arguments: list[Any],
        recorder: CallRecorder | None = None,
        *,
        obs=None,
        obs_span: int = -1,
        fault: bool = False,
    ) -> tuple[tuple, ...]:
        operation = wsdl_operation.name
        service = endpoint.document.service_name
        sinks = self._sinks(operation, recorder)
        kernel = self.kernel
        started = kernel.now()

        # Request: marshalling + set-up + half the round trip.
        request_text = soap.encode_request(wsdl_operation, arguments)
        await kernel.sleep(profile.setup + profile.rtt / 2.0)

        # Queue for a server slot (lazily bound to this kernel — and to
        # its current generation: a shutdown kills whatever run the old
        # semaphore belonged to, so a broker reused across shutdowns must
        # not queue new calls on the dead run's primitive).
        if (
            endpoint.slots is None
            or endpoint.slots_generation != kernel.generation
        ):
            endpoint.slots = kernel.semaphore(endpoint.capacity)
            endpoint.slots_generation = kernel.generation
            endpoint.concurrent = 0
        queue_entered = kernel.now()
        endpoint.concurrent += 1
        acquired = False
        obs_process = f"ws:{service}" if obs is not None else ""
        queue_span = server_span = -1
        if obs is not None:
            queue_span = obs.start(
                f"queue:{operation}",
                category="queue",
                parent=obs_span,
                process=obs_process,
                at=queue_entered,
                capacity=endpoint.capacity,
            )
        try:
            await endpoint.slots.acquire()
            acquired = True
            queue_wait = kernel.now() - queue_entered
            if obs is not None:
                obs.finish(queue_span, at=kernel.now(), wait=queue_wait)
                server_span = obs.start(
                    f"serve:{operation}",
                    category="server",
                    parent=obs_span,
                    process=obs_process,
                    at=kernel.now(),
                )
            for sink in sinks:
                sink.queue_wait.add(queue_wait)
            if fault:
                await kernel.sleep(profile.service_time)
                for sink in sinks:
                    sink.faults += 1
                raise ServiceFault(
                    f"{service}.{operation} failed transiently", retriable=True
                )
            decoded_arguments = soap.decode_request(wsdl_operation, request_text)
            payload = endpoint.provider.invoke(operation, decoded_arguments)
            rows = soap.count_rows(wsdl_operation.output_element, payload)
            # Load-dependent degradation: every concurrent client beyond
            # the degradation knee slows processing down.
            knee = (
                profile.degrade_above
                if profile.degrade_above is not None
                else endpoint.capacity
            )
            overload = endpoint.concurrent - knee
            server_time = profile.server_time(
                rows, self._rng.uniform(-1.0, 1.0), overload
            )
            await kernel.sleep(server_time)
            for sink in sinks:
                sink.server_time.add(server_time)
        finally:
            endpoint.concurrent -= 1
            if acquired:
                endpoint.slots.release()
            if obs is not None:
                # Close whatever is still open: a timeout can cancel the
                # call mid-queue or mid-service.
                obs.finish(queue_span, at=kernel.now())
                obs.finish(server_span, at=kernel.now())

        # Response: half the round trip, then marshal the answer, book the
        # call in every sink and hand the client side its decoded rows.
        await kernel.sleep(profile.rtt / 2.0)
        total_time = kernel.now() - started
        response_text = soap.encode_response(wsdl_operation, payload)
        for sink in sinks:
            sink.calls += 1
            sink.rows += rows
            sink.bytes_transferred += len(request_text) + len(response_text)
            sink.total_time.add(total_time)
        return soap.decode_response(wsdl_operation, response_text)
