"""The five workloads.  Each builds one configuration of the system, runs
closed-loop rounds of queries against it and verifies every result.

All load comes from this one process: one caller for the in-process
workloads, two client threads for ``http_serve`` (never more than the
machine's two cores).  A *round* is a fixed list of queries; warm-up rounds
belong to set-up.  Verification happens outside the timed intervals.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import (
    QUERY1_SQL,
    WSMED,
    AsyncioKernel,
    CacheConfig,
    ProcessCosts,
    QueryEngine,
    QueryOptions,
)

from . import ROOT
from .measure import Tracer, descendants
from .world import SMALL_SQL, ChainWorld, rows_match, walk_query1

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
Q1_CALLS = 311


def warm_wsmed() -> WSMED:
    """The warm-engine configuration of ``engine_warm`` and ``http_serve``
    (as benchmarks/bench_throughput.py): strict cache-affinity routing, so a
    warm Query1 is 311 cache hits and no broker call."""
    wsmed = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    wsmed.import_all()
    return wsmed


def _query1_ok(result, reference: Counter) -> bool:
    """Query1 answered from the services: the reference bag, 311 calls."""
    return (
        Counter(map(tuple, result.rows)) == reference
        and result.total_calls == Q1_CALLS
    )


@dataclass
class Sample:
    """One query as its caller saw it."""

    label: str  # entry point or query kind, for the per-entry-point medians
    wall_s: float
    first_row_s: float
    cpu_s: float  # this process's CPU inside the timed interval
    ok: bool
    counts: dict = field(default_factory=dict)


def _result_counts(result) -> dict:
    messages = result.message_stats
    cache = result.cache_stats
    return {
        "calls": result.total_calls,
        "bytes": sum(s.bytes_transferred for s in result.call_stats.values()),
        "messages": messages.param_tuples
        + messages.param_batches
        + messages.result_tuples
        + messages.result_batches
        + messages.end_of_calls,
        "processes": result.tree.processes_spawned,
        "model_s": result.elapsed,
        "rows": len(result.rows),
        "cache_hits": cache.calls_avoided if cache else 0,
        "cache_lookups": cache.lookups if cache else 0,
    }


def _stats_counts(stats: dict) -> dict:
    """The engine counters the per-layer rates are computed from."""
    return {
        key: stats[key]
        for key in (
            "plan_cache_hits",
            "plan_cache_misses",
            "warm_leases",
            "cold_starts",
            "peak_concurrency",
        )
    }


class Workload:
    """One system configuration plus the rounds that load it."""

    name = ""
    why = ""
    warmup_rounds = 0
    #: Whether this process is part of the system under test (its CPU and
    #: memory count) or only the load generator (``http_serve``).
    in_process = True
    #: Whether ``QueryResult.elapsed`` is model time (a ``SimKernel``) or a
    #: scaled wall clock that says nothing about the paper's numbers.
    model_clock = True

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.tracer = tracer
        self.profiler = None  # a cProfile.Profile during the traced pass
        self.warm = False  # set-up done: caches are full, checks are strict
        self._query_ids = itertools.count()

    # -- to implement ---------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def round(self, parent: int) -> list[Sample]:
        raise NotImplementedError

    def engine_counts(self) -> dict | None:
        """Cumulative engine counters, or None without a resident engine."""
        return None

    def children(self) -> list[int]:
        """Pids of the OS processes the system started."""
        return []

    def close(self) -> None:
        raise NotImplementedError

    # -- driving --------------------------------------------------------------

    def setup(self) -> None:
        """Build the system and run the warm-up rounds."""
        with self.tracer.span("bench.setup") as span:
            self.build()
            with self.tracer.span("bench.warmup", parent=span) as warm:
                self.measure(lambda done: done >= self.warmup_rounds, warm)
        self.warm = True

    def measure(self, stop, parent: int = -1) -> tuple[list[list[Sample]], float]:
        """Run rounds until ``stop(rounds_done)``; returns the rounds and
        the wall seconds the caller spent waiting for replies."""
        rounds = []
        while not stop(len(rounds)):
            with self.tracer.span("bench.round", parent=parent) as span:
                rounds.append(self.round(span))
        return rounds, sum(s.wall_s for r in rounds for s in r)

    def _timed(self, label: str, call, check, parent: int) -> Sample:
        """Time one in-process query; verify its result afterwards."""
        query = next(self._query_ids)
        profiler = self.profiler
        result = error = None
        if profiler is not None:
            profiler.enable()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed query is a counted failure
            error = exc
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        if profiler is not None:
            profiler.disable()
        self.tracer.add("bench.query", wall0, wall1, parent, query)
        if error is not None:
            print(f"query failed: {type(error).__name__}: {error}", file=sys.stderr)
            return Sample(label, wall1 - wall0, wall1 - wall0, cpu1 - cpu0, False)
        with self.tracer.span("bench.verify", parent, query):
            ok = check(result)
        # The in-process APIs return the complete row list, so the caller
        # holds its first row when the call returns.
        return Sample(
            label, wall1 - wall0, wall1 - wall0, cpu1 - cpu0, ok,
            _result_counts(result),
        )


class OneshotPaper(Workload):
    name = "oneshot_paper"
    why = (
        "the paper's own path: a fresh WSMED.sql per query pays compile, spawn, "
        "311 SOAP round trips and the provider every time; no engine, no cache"
    )
    warmup_rounds = 2
    ROUND = (
        ("central", QueryOptions(mode="central")),
        ("parallel", Q1_PARALLEL),
        ("adaptive", QueryOptions(mode="adaptive")),
    )

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        _, self.reference, _ = walk_query1()

    def build(self) -> None:
        self.wsmed = WSMED(profile="paper")
        self.wsmed.import_all()

    def round(self, parent: int) -> list[Sample]:
        return [
            self._timed(
                label,
                lambda options=options: self.wsmed.sql(QUERY1_SQL, options=options),
                lambda result: _query1_ok(result, self.reference),
                parent,
            )
            for label, options in self.ROUND
        ]

    def close(self) -> None:
        pass  # every WSMED.sql tears its own kernel down


class _EngineWorkload(Workload):
    """Shared by the workloads that keep one resident ``QueryEngine``."""

    engine: QueryEngine

    def engine_counts(self) -> dict:
        return _stats_counts(self.engine.stats().as_dict())

    def close(self) -> None:
        self.engine.close()


class EngineWarm(_EngineWorkload):
    name = "engine_warm"
    why = (
        "resident engine, plan and call caches warm: 311 cache hits and 0 broker "
        "calls, so only interpreter, pools, cache and kernel work; bypasses "
        "broker, SOAP, provider and compile"
    )
    warmup_rounds = 2
    QUERIES_PER_ROUND = 10

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        _, self.reference, _ = walk_query1()

    def build(self) -> None:
        self.engine = QueryEngine(warm_wsmed())

    def _check(self, result) -> bool:
        if Counter(map(tuple, result.rows)) != self.reference:
            return False
        # Only the very first query of the warm-up may reach the broker.
        return not self.warm or (
            result.total_calls == 0 and result.cache_stats.hits == Q1_CALLS
        )

    def round(self, parent: int) -> list[Sample]:
        return [
            self._timed(
                "parallel",
                lambda: self.engine.sql(QUERY1_SQL, options=Q1_PARALLEL),
                self._check,
                parent,
            )
            for _ in range(self.QUERIES_PER_ROUND)
        ]


class EngineChainMix(_EngineWorkload):
    name = "engine_chain_mix"
    why = (
        "seeded 40-query mix of chain/join/aggregate/OR/LIMIT on a null-provider "
        "world: many plans and pools, small SOAP payloads, no provider cost; shows"
        " a gain tuned to Query1 that costs joins or aggregates"
    )
    warmup_rounds = 1

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        self.world = ChainWorld(seed)
        self.trace = self.world.trace(seed)

    def build(self) -> None:
        self.engine = QueryEngine(self.world.build())

    def round(self, parent: int) -> list[Sample]:
        samples = []
        for entry in self.trace:
            options = QueryOptions(mode=entry["mode"], fanouts=entry["fanouts"])
            samples.append(
                self._timed(
                    entry["kind"],
                    lambda: self.engine.sql(entry["sql"], options=options),
                    lambda result: rows_match(
                        entry["kind"], result.rows, entry["reference"]
                    ),
                    parent,
                )
            )
        return samples


class ProcessWire(_EngineWorkload):
    name = "process_wire"
    why = (
        "resident engine on ProcessKernel(workers=1): every parameter tuple, "
        "result tuple and proxied broker call crosses the pickle-framed pipe; "
        "the only workload where runtime.wire/workers/placement do work"
    )
    warmup_rounds = 3
    model_clock = False

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        _, self.reference, _ = walk_query1()

    def make_kernel(self):
        from repro import ProcessKernel

        return ProcessKernel(workers=1, time_scale=1e-6)

    def build(self) -> None:
        wsmed = WSMED(profile="fast")
        wsmed.import_all()
        self.kernel = self.make_kernel()
        self.engine = QueryEngine(wsmed, kernel=self.kernel)

    def round(self, parent: int) -> list[Sample]:
        return [
            self._timed(
                "parallel",
                lambda: self.engine.sql(QUERY1_SQL, options=Q1_PARALLEL),
                lambda result: _query1_ok(result, self.reference),
                parent,
            )
        ]

    def children(self) -> list[int]:
        return descendants(os.getpid())

    def close(self) -> None:
        workers = self.children()
        try:
            self.engine.close()
        finally:
            orphans = [pid for pid in workers if pid in descendants(os.getpid())]
            for pid in orphans:
                os.kill(pid, 9)
        if orphans:
            raise RuntimeError(f"worker processes outlived the kernel: {orphans}")


class AsyncioBaseline(ProcessWire):
    """``process_wire``'s queries on an in-process real-time kernel: the
    denominator of ``runtime.wire.tax_ratio``.  Not a workload of its own."""

    name = "asyncio_baseline"

    def make_kernel(self):
        return AsyncioKernel(resident=True, time_scale=1e-6)


class HttpServe(Workload):
    name = "http_serve"
    why = (
        "POST /sql to a warm engine in a server subprocess, two closed-loop clients: "
        "engine work equals engine_warm, the rest is serve (parse, json per row, "
        "chunking) on one event loop; no broker call"
    )
    warmup_rounds = 4
    in_process = False
    model_clock = False
    CLIENTS = 2

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        _, q1_reference, small_reference = walk_query1()
        self.requests = (
            (
                "q1",
                _http_request(
                    {
                        "sql": QUERY1_SQL,
                        "options": {"mode": "parallel", "fanouts": [5, 4]},
                    }
                ),
                q1_reference,
            ),
            (
                "small",
                _http_request({"sql": SMALL_SQL, "options": {"mode": "central"}}),
                small_reference,
            ),
        )
        self.server = None

    def build(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.serve_launcher"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
            },
        )
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("the server subprocess did not start")
        self.port = json.loads(line)["port"]

    def command(self, line: str) -> None:
        """Send one launcher command and wait for its acknowledgement."""
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()
        if self.server.stdout.readline().strip() != "ok":
            raise RuntimeError(f"server did not acknowledge {line!r}")

    def children(self) -> list[int]:
        return [self.server.pid] + descendants(self.server.pid)

    def engine_counts(self) -> dict:
        status, lines, _ = _parse_response(
            _exchange(self.port, b"GET /stats HTTP/1.1\r\nHost: e2e\r\n\r\n")[0]
        )
        if status != 200:
            raise RuntimeError(f"GET /stats -> {status}")
        return _stats_counts(lines[0])

    def measure(self, stop, parent: int = -1) -> tuple[list[list[Sample]], float]:
        per_client: list[list] = [[] for _ in range(self.CLIENTS)]

        def client(index: int) -> None:
            rounds = per_client[index]
            while not stop(len(rounds)):
                with self.tracer.span("bench.round", parent=parent) as span:
                    rounds.append(
                        [self._request(*request, span) for request in self.requests]
                    )

        threads = [
            threading.Thread(target=client, args=(index,), name=f"client{index}")
            for index in range(self.CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        # Responses were kept raw; decode and verify them outside the window.
        rounds = [
            [self._verify(*raw) for raw in raw_round]
            for client_rounds in per_client
            for raw_round in client_rounds
        ]
        return rounds, wall

    def _request(self, label: str, request: bytes, reference, parent: int):
        query = next(self._query_ids)
        try:
            raw, marks = _exchange(self.port, request)
        except OSError as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            now = time.perf_counter()
            raw, marks = b"", (now, now, now, now, now)
        if self.tracer.enabled:
            span = self.tracer.add("bench.query", marks[0], marks[4], parent, query)
            for name, start, end in zip(
                ("http.connect", "http.first_byte", "http.first_row", "http.trailer"),
                marks,
                marks[1:],
            ):
                self.tracer.add(name, start, end, span, query)
        return label, raw, marks, reference, parent, query

    def _verify(self, label, raw, marks, reference, parent, query) -> Sample:
        wall, first_row = marks[4] - marks[0], marks[3] - marks[0]
        with self.tracer.span("bench.verify", parent, query):
            status, lines, body_bytes = _parse_response(raw)
            if status != 200 or len(lines) < 2 or "error" in lines[-1]:
                return Sample(label, wall, first_row, 0.0, False)
            trailer, rows = lines[-1], lines[1:-1]
            ok = (
                trailer["rows"] == len(rows)
                and Counter(map(tuple, rows)) == reference
                # Only the first warm-up requests may reach the broker.
                and (not self.warm or trailer["total_calls"] == 0)
            )
        cache = trailer.get("cache") or {}
        lookups = sum(cache.get(k, 0) for k in ("hits", "misses", "collapsed"))
        counts = {
            "calls": trailer["total_calls"],
            "model_s": trailer["elapsed"],
            "rows": len(rows),
            "cache_hits": cache.get("hits", 0) + cache.get("collapsed", 0),
            "cache_lookups": lookups,
            "http_bytes": body_bytes,
        }
        return Sample(label, wall, first_row, 0.0, ok, counts)

    def close(self) -> None:
        if self.server is None:
            return
        self.server.stdin.close()  # EOF stops the server
        try:
            self.server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


def _http_request(payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST /sql HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _exchange(port: int, request: bytes) -> tuple[bytes, tuple]:
    """One request on a new connection (the server closes after each).

    Returns the raw response and five ``perf_counter`` marks: start,
    connected, first byte, first result row line, end of stream.  The
    stream is only scanned for the first row here — each NDJSON line is
    its own HTTP chunk ending ``\\n\\r\\n``, the first being the column
    header — and decoded after the measured window.
    """
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        connected = time.perf_counter()
        sock.sendall(request)
        buffer = bytearray()
        first_byte = first_row = None
        body_at = -1
        while True:
            data = sock.recv(1 << 16)
            now = time.perf_counter()
            if not data:
                break
            if first_byte is None:
                first_byte = now
            buffer += data
            if first_row is None:
                if body_at < 0:
                    body_at = buffer.find(b"\r\n\r\n")
                if body_at >= 0 and buffer.count(b"\n\r\n", body_at + 4) >= 2:
                    first_row = now
    first_byte = first_byte or now
    return bytes(buffer), (start, connected, first_byte, first_row or now, now)


def _parse_response(raw: bytes) -> tuple[int, list, int]:
    """``(status, decoded JSON lines, body bytes)`` of a raw HTTP response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, [], 0
    if b"transfer-encoding: chunked" in head.lower():
        chunks, position = [], 0
        while True:
            line_end = body.find(b"\r\n", position)
            if line_end < 0:
                return 0, [], 0  # severed stream
            size = int(body[position:line_end], 16)
            if size == 0:
                break
            chunks.append(body[line_end + 2 : line_end + 2 + size])
            position = line_end + 2 + size + 2
        body = b"".join(chunks)
    lines = [json.loads(line) for line in body.splitlines() if line]
    return status, lines, len(body)


WORKLOADS = {
    cls.name: cls
    for cls in (OneshotPaper, EngineWarm, EngineChainMix, HttpServe, ProcessWire)
}
