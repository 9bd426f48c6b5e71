"""Layer probes: direct timed calls into one layer's public functions.

Each probe reports the median over ``batches`` batches of the wall time
per operation.  The service-side probes replay the 311 call argument lists
of Query1 (see :func:`benchmarks.e2e.world.walk_query1`), so they weigh the
three operations exactly as the paper's query does.
"""

from __future__ import annotations

import pickle
import statistics
import time

from repro import (
    QUERY1_SQL,
    WSMED,
    AsyncioKernel,
    CacheConfig,
    QueryOptions,
    SimKernel,
)
from repro.cache import CallCache
from repro.engine import PlanCache
from repro.parallel.messages import ParamTuple, ResultTuple
from repro.runtime.wire import FromChild, ToChild
from repro.services import soap
from repro.sql.parser import parse_query

from .world import ChainWorld, walk_query1


def _median_us(batch, operations: int, batches: int) -> float:
    """Median over batches of ``batch()``'s wall time per operation, in µs."""
    times = []
    for _ in range(batches):
        started = time.perf_counter()
        batch()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / operations * 1e6


def _ping_pong(kernel, messages: int) -> None:
    """Two tasks bounce ``messages`` messages over a pair of channels."""

    async def main() -> None:
        there, back = kernel.channel("there"), kernel.channel("back")

        async def echo() -> None:
            for _ in range(messages // 2):
                back.send(await there.recv())

        task = kernel.spawn(echo(), name="echo")
        for index in range(messages // 2):
            there.send(index)
            await back.recv()
        await task.join()

    kernel.run(main())


def run_probes(seed: int, batches: int = 5, scale: int = 1) -> dict[str, float]:
    """All probe metrics by name.  ``scale`` divides the batch sizes (smoke)."""
    calls, _, _ = walk_query1()
    wsmed = WSMED(profile="paper")
    wsmed.import_all()
    registry = wsmed.registry
    providers = {provider.uri: provider for provider in registry.providers}
    prepared = []  # (wsdl operation, provider, arguments, payload) per call
    for uri, _service, operation, arguments in calls:
        wsdl_operation = registry.document(uri).operation(operation)
        payload = providers[uri].invoke(operation, arguments)
        prepared.append((wsdl_operation, providers[uri], arguments, payload))
    n_calls = len(prepared)
    metrics: dict[str, float] = {}

    def repeat(count: int, function) -> tuple:
        count = max(1, count // scale)
        return (lambda: [function() for _ in range(count)]), count

    # -- compile path ---------------------------------------------------------
    batch, count = repeat(100, lambda: parse_query(QUERY1_SQL))
    metrics["sql.parse_us"] = _median_us(batch, count, batches)
    parallel = QueryOptions(mode="parallel", fanouts=[5, 4])
    batch, count = repeat(40, lambda: wsmed.plan(QUERY1_SQL, options=parallel))
    metrics["wsmed.compile_us"] = _median_us(batch, count, batches)
    world = ChainWorld(seed)
    chain_wsmed = world.build()
    join_sql, _ = world.query("join", 0)
    cost = QueryOptions(mode="central", optimize="cost")
    batch, count = repeat(10, lambda: chain_wsmed.plan(join_sql, options=cost))
    metrics["algebra.optimizer.compile_us"] = _median_us(batch, count, batches)

    # -- one web-service call, layer by layer ---------------------------------
    def request_codec() -> None:
        for operation, _, arguments, _ in prepared:
            soap.decode_request(operation, soap.encode_request(operation, arguments))

    def response_codec() -> None:
        for operation, _, _, payload in prepared:
            soap.decode_response(operation, soap.encode_response(operation, payload))

    def invoke() -> None:
        for operation, provider, arguments, _ in prepared:
            provider.invoke(operation.name, arguments)

    def broker_calls() -> None:
        kernel = SimKernel()
        broker = registry.bind(kernel)

        async def main() -> None:
            for uri, service, operation, arguments in calls:
                await broker.call(uri, service, operation, arguments)

        kernel.run(main())

    metrics["services.soap.request_codec_us"] = _median_us(request_codec, n_calls, batches)
    metrics["services.soap.response_codec_us"] = _median_us(response_codec, n_calls, batches)
    metrics["services.soap.bytes_per_call"] = sum(
        len(soap.encode_request(operation, arguments))
        + len(soap.encode_response(operation, payload))
        for operation, _, arguments, payload in prepared
    ) / n_calls
    metrics["services.providers.invoke_us"] = _median_us(invoke, n_calls, batches)
    metrics["services.broker.call_us"] = _median_us(broker_calls, n_calls, batches)
    metrics["services.broker.self_us"] = (
        metrics["services.broker.call_us"]
        - metrics["services.soap.request_codec_us"]
        - metrics["services.soap.response_codec_us"]
        - metrics["services.providers.invoke_us"]
    )

    # -- caches ---------------------------------------------------------------
    hits = max(1, 5000 // scale)
    sim = SimKernel()
    cache = CallCache(sim, CacheConfig(enabled=True))
    key = ("uri", "service", "operation", ("Atlanta", "Georgia", 15.0, "City"))

    async def transport():
        return "value"

    async def warm_lookups() -> None:
        for _ in range(hits):
            await cache.call(key, transport)

    sim.run(cache.call(key, transport))
    metrics["cache.hit_us"] = _median_us(lambda: sim.run(warm_lookups()), hits, batches)
    plans = PlanCache()
    fingerprint = PlanCache.fingerprint(QUERY1_SQL, "parallel", [5, 4], None, "Query")
    plans.put(fingerprint, object())
    batch, count = repeat(
        2000,
        lambda: plans.get(
            PlanCache.fingerprint(QUERY1_SQL, "parallel", [5, 4], None, "Query")
        ),
    )
    metrics["engine.plan_cache.hit_us"] = _median_us(batch, count, batches)

    # -- kernels --------------------------------------------------------------
    messages = max(2, 4000 // scale)
    metrics["runtime.simulated.msg_us"] = _median_us(
        lambda: _ping_pong(SimKernel(), messages), messages, batches
    )
    sleepers = max(1, 2000 // scale)

    def timers() -> None:
        kernel = SimKernel()

        async def nap(duration: float) -> None:
            await kernel.sleep(duration)

        async def main() -> None:
            await kernel.gather(
                *[nap(0.001 * (index % 7 + 1)) for index in range(sleepers)]
            )

        kernel.run(main())

    metrics["runtime.simulated.timer_us"] = _median_us(timers, sleepers, batches)
    metrics["runtime.realtime.msg_us"] = _median_us(
        lambda: _ping_pong(AsyncioKernel(), messages), messages, batches
    )

    # -- the worker wire ------------------------------------------------------
    down = ToChild(7, ParamTuple(seq=3, row=("Atlanta", "Georgia", 15.0, "City")))
    up = FromChild(7, ResultTuple(child="q7", row=("Decatur", "GA"), seq=3))

    def envelopes() -> None:
        pickle.loads(pickle.dumps(down))
        pickle.loads(pickle.dumps(up))

    batch, count = repeat(2000, envelopes)
    metrics["runtime.wire.envelope_us"] = _median_us(batch, count, batches)
    metrics["runtime.wire.envelope_bytes"] = float(
        len(pickle.dumps(down)) + len(pickle.dumps(up))
    )
    return metrics
