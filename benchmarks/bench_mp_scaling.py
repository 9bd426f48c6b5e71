"""Multi-process kernel scaling: sharding blocking provider work.

The single-process kernels model web-service latency as *async* sleeps,
which is why asyncio tasks are a faithful stand-in for the paper's query
processes.  But a real mediator's call path is often *synchronous*: a
SOAP client library (or server-side marshalling work) holds the calling
thread for the duration of the call.  Under ``AsyncioKernel`` such a
call blocks the whole event loop — every other query process stalls —
so total wall time degenerates to the serial sum.  The
:class:`~repro.runtime.multiprocess.ProcessKernel` shards the child
pools across OS worker processes (``local_services=True`` ships the
service registry so workers execute calls in-process), so blocking calls
in different workers genuinely overlap.

The workload is a dependent join GetAllStates -> HashState where the
HashState provider is deliberately synchronous: each call burns a PBKDF2
digest and holds its thread for a fixed work interval.  Measured rows:

* ``AsyncioKernel`` (everything on one loop) — the serial baseline;
* ``ProcessKernel`` at 1/2/4/8 workers, same query, same fanout;
* the HTTP front end (``repro.serve``): cold/warm request latency and
  sequential request throughput over a resident engine;
* proxy mode (the default: every worker call is proxied to the
  coordinator's broker): Query1 ``{5,4}`` with the cache off on a
  resident engine over ``AsyncioKernel`` and over ``ProcessKernel`` at 1
  and 2 workers, at ``time_scale`` 0.001 and 0.01, the median wall of
  five warm queries.

Checked claims (full mode): at 4 workers the wall-clock speedup over the
asyncio baseline is >= 2x, and every kernel returns the identical bag of
rows — in the proxy section too, where the wall times are reported, not
asserted.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import statistics
import threading
import time

from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    QueryEngine,
    WSMED,
    build_registry,
    QueryOptions,
)
from repro.runtime.multiprocess import ProcessKernel

from benchmarks import harness
from benchmarks.worlds import HASH_SERVICE

NAME = "mp_scaling"
WORKER_COUNTS = (1, 2, 4, 8)
FANOUT = [8]
TIME_SCALE = 0.0005  # model seconds are negligible; blocking work dominates
WORK_SECONDS = 0.02  # per-call synchronous hold (client library + server)
PBKDF2_ITERATIONS = 20_000

# The proxy-mode section: Query1 on the paper's own services.
PROXY_OPTIONS = QueryOptions(mode="parallel", fanouts=[5, 4])
PROXY_TIME_SCALES = (0.001, 0.01)
PROXY_WORKER_COUNTS = (1, 2)
PROXY_REPEATS = 5

HASH_SQL = """
Select gs.Name, hs.digest
From   GetAllStates gs, HashState hs
Where  hs.state = gs.State
"""


class HashProvider:
    """:data:`~benchmarks.worlds.HASH_SERVICE`, answered synchronously:
    every call holds the calling thread.

    Module-level class so the instance pickles into the workers
    (``local_services=True``).  The deterministic PBKDF2 digest makes
    row-identity across kernels checkable.
    """

    uri = HASH_SERVICE.uri

    def __init__(self, geodata, *, work_seconds: float, iterations: int) -> None:
        self.work_seconds = work_seconds
        self.iterations = iterations

    def wsdl_text(self) -> str:
        return HASH_SERVICE.wsdl_text()

    def invoke(self, operation: str, arguments: list) -> dict:
        (state_name,) = arguments
        digest = hashlib.pbkdf2_hmac(
            "sha256", state_name.encode(), b"mp-scaling", self.iterations
        ).hex()
        time.sleep(self.work_seconds)  # the synchronous client library hold
        return {"HashStateResult": {"Digests": [{"digest": digest}]}}


def build_wsmed(work_seconds: float, iterations: int) -> WSMED:
    provider = functools.partial(
        HashProvider, work_seconds=work_seconds, iterations=iterations
    )
    registry = build_registry(
        "fast",
        extra_providers=(provider,),
        extra_costs={HASH_SERVICE.name: HASH_SERVICE.costs()},
    )
    wsmed = WSMED(registry, profile="fast")
    wsmed.import_all()
    return wsmed


def _timed_query(wsmed: WSMED, kernel) -> tuple[float, object]:
    started = time.perf_counter()
    result = wsmed.sql(
        HASH_SQL,
        options=QueryOptions(mode="parallel", fanouts=FANOUT, kernel=kernel),
    )
    return time.perf_counter() - started, result


def _row(kernel: str, workers: int, wall: float, result) -> dict:
    return {
        "kernel": kernel,
        "workers": workers,
        "wall_s": wall,
        "rows": len(result.rows),
        "calls": result.total_calls,
        "bag": sorted(result.rows),
    }


def measure_asyncio(wsmed: WSMED) -> dict:
    """The serial baseline: blocking calls stall the single event loop."""
    walls = []
    for _ in range(2):  # first round doubles as warm-up; keep the best
        wall, result = _timed_query(wsmed, AsyncioKernel(time_scale=TIME_SCALE))
        walls.append(wall)
    return _row("asyncio", 0, min(walls), result)


def measure_process(wsmed: WSMED, workers: int) -> dict:
    with ProcessKernel(
        workers=workers, time_scale=TIME_SCALE, local_services=True
    ) as kernel:
        # Warm-up run pays fleet spawn + code shipping; the measured run
        # is the steady state a resident deployment serves.
        _timed_query(wsmed, kernel)
        wall, result = _timed_query(wsmed, kernel)
    return _row("process", workers, wall, result)


def measure_http() -> dict:
    """Front-end overhead: Query1 over the HTTP server on a warm engine."""
    from repro.serve import QueryServer

    kernel = AsyncioKernel(resident=True, time_scale=TIME_SCALE)
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    engine = QueryEngine(wsmed, kernel=kernel)
    server = QueryServer(engine, port=0)
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.run()

        kernel.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"

    def one_request() -> tuple[float, int]:
        body = json.dumps(
            {"sql": QUERY1_SQL, "options": {"mode": "parallel", "fanouts": [5, 4]}}
        )
        started = time.perf_counter()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        connection.request("POST", "/sql", body=body)
        payload = connection.getresponse().read().decode()
        connection.close()
        wall = time.perf_counter() - started
        lines = payload.strip().split("\n")
        trailer = json.loads(lines[-1])
        assert trailer["rows"] == len(lines) - 2
        return wall, trailer["rows"]

    try:
        cold_wall, rows = one_request()
        warm_walls = [one_request()[0] for _ in range(4)]
        batch_start = time.perf_counter()
        for _ in range(4):
            one_request()
        batch_wall = time.perf_counter() - batch_start
    finally:
        server.stop()
        thread.join(10)
        engine.close()
        kernel.shutdown()
    return {
        "cold_request_s": cold_wall,
        "warm_request_s": min(warm_walls),
        "rows_per_request": rows,
        "sequential_requests_per_s": 4 / batch_wall,
    }


def _proxy_row(wsmed: WSMED, workers: int, time_scale: float, repeats: int) -> dict:
    """Median wall of ``repeats`` Query1 runs on a resident engine (over
    ``AsyncioKernel`` when ``workers`` is 0), after one warm-up that
    spawns (and on ``ProcessKernel`` forks) the tree."""
    if workers:
        kernel = ProcessKernel(workers=workers, time_scale=time_scale)
    else:
        kernel = AsyncioKernel(resident=True, time_scale=time_scale)
    engine = QueryEngine(wsmed, kernel=kernel)
    try:
        engine.sql(QUERY1_SQL, options=PROXY_OPTIONS)
        walls = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = engine.sql(QUERY1_SQL, options=PROXY_OPTIONS)
            walls.append(time.perf_counter() - started)
    finally:
        engine.close()  # shuts the kernel down too
    return {
        "kernel": "process" if workers else "asyncio",
        "workers": workers,
        "time_scale": time_scale,
        "query_ms_p50": statistics.median(walls) * 1e3,
        "rows": len(result.rows),
        "calls": result.total_calls,
        "bag": sorted(result.rows),
    }


def measure_proxy(smoke: bool) -> dict:
    """Query1 ``{5,4}``, cache off, proxy mode against ``AsyncioKernel``."""
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    scales = PROXY_TIME_SCALES[:1] if smoke else PROXY_TIME_SCALES
    repeats = 1 if smoke else PROXY_REPEATS
    rows = [
        _proxy_row(wsmed, workers, time_scale, repeats)
        for time_scale in scales
        for workers in (0, *PROXY_WORKER_COUNTS)
    ]
    bags = [row.pop("bag") for row in rows]
    return {
        "workload": {
            "sql": "Query1",
            "mode": "parallel",
            "fanouts": PROXY_OPTIONS.fanouts,
            "profile": "fast",
            "cache": False,
            "repeats": repeats,
        },
        "rows_identical_across_kernels": all(bag == bags[0] for bag in bags),
        "kernels": rows,
    }


def run(smoke: bool = False) -> dict:
    work_seconds, iterations = (0.005, 2_000) if smoke else (WORK_SECONDS, PBKDF2_ITERATIONS)
    counts = (1, 2) if smoke else WORKER_COUNTS
    wsmed = build_wsmed(work_seconds, iterations)
    rows = [measure_asyncio(wsmed)]
    rows.extend(measure_process(wsmed, workers) for workers in counts)

    bags = [row.pop("bag") for row in rows]
    for row in rows:
        row["speedup_vs_asyncio"] = rows[0]["wall_s"] / row["wall_s"]

    return {
        "workload": {
            "sql": "GetAllStates -> HashState (50 synchronous calls)",
            "work_seconds_per_call": work_seconds,
            "pbkdf2_iterations": iterations,
            "fanout": FANOUT,
            "time_scale": TIME_SCALE,
            "local_services": True,
        },
        "rows_identical_across_kernels": all(bag == bags[0] for bag in bags),
        "kernels": rows,
        "http_front_end": measure_http(),
        "proxy_mode": measure_proxy(smoke),
    }


def report(payload: dict) -> None:
    for row in payload["kernels"]:
        label = (
            f"{row['kernel']} x{row['workers']} workers"
            if row["workers"]
            else f"{row['kernel']} (single process)"
        )
        print(
            f"{label:>28}: {row['wall_s']:6.2f} s wall "
            f"({row['rows']} rows, {row['calls']} calls, "
            f"{row['speedup_vs_asyncio']:.2f}x)"
        )
    http_row = payload["http_front_end"]
    print(
        f"http front end: cold {http_row['cold_request_s']:.2f} s, "
        f"warm {http_row['warm_request_s']:.2f} s, "
        f"{http_row['sequential_requests_per_s']:.1f} requests/s "
        f"({http_row['rows_per_request']} rows each)"
    )
    print("proxy mode, Query1 {5,4}, cache off (median wall per warm query):")
    for row in payload["proxy_mode"]["kernels"]:
        label = f"process x{row['workers']}" if row["workers"] else "asyncio"
        print(
            f"  time_scale {row['time_scale']:<6} {label:>11}: "
            f"{row['query_ms_p50']:7.1f} ms ({row['rows']} rows, {row['calls']} calls)"
        )


def check(payload: dict) -> None:
    assert payload["rows_identical_across_kernels"]
    assert payload["proxy_mode"]["rows_identical_across_kernels"]
    assert payload["http_front_end"]["rows_per_request"] == 360
    # Full runs only: the smoke run stops at two workers.
    for row in payload["kernels"]:
        if row["workers"] == 4:
            assert row["speedup_vs_asyncio"] >= 2.0, row


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
