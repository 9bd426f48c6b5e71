"""``POST /sql`` streams: the handler consumes the engine's row stream, so
the first row is on the wire while the query still runs, an error before
it keeps its status code, and a client that goes away closes the stream.

The stub tests gate the stream on events the test sets, so none depends
on timing; socket timeouts only keep a broken server from hanging them.
"""

import asyncio
import json
import socket
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import QUERY1_SQL, AsyncioKernel, QueryEngine, WSMED
from repro.engine import AdmissionRejected, EngineClosed
from repro.serve import QueryServer
from repro.serve.server import FLUSH_ROWS
from repro.util.errors import ReproError
from repro.wsmed.results import QueryStream

from tests.serve.test_serve_hardening import (
    StubEngine,
    StubResult,
    failing,
    request,
    running_server,
)

HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"Connection: close\r\n\r\n"
)


def _chunk(payload) -> bytes:
    data = (json.dumps(payload, default=str) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def buffered_body(columns, rows, result) -> bytes:
    """The response a buffer-then-send server writes for a collected
    result: one chunk per NDJSON line, then the terminating chunk."""
    trailer = {
        "rows": len(rows),
        "elapsed": result.elapsed,
        "total_calls": result.total_calls,
        "mode": result.mode,
    }
    if result.cache_stats is not None:
        trailer["cache"] = result.cache_stats.as_dict()
    lines = [{"columns": list(columns)}, *map(list, rows), trailer]
    return HEAD + b"".join(map(_chunk, lines)) + b"0\r\n\r\n"


def post(port: int, sql="Select 1", options=None, timeout=10) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    body = json.dumps({"sql": sql, "options": options or {}}).encode("utf-8")
    sock.sendall(
        b"POST /sql HTTP/1.1\r\nHost: t\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
        + body
    )
    return sock


def read_until_first_row(sock: socket.socket) -> bytes:
    """Bytes up to the first row line: the head, the column header chunk
    and one row chunk (each NDJSON line ends ``\\n\\r\\n``)."""
    received = b""
    while received.count(b"\n\r\n") < 2:
        data = sock.recv(65536)
        assert data, f"connection closed before the first row: {received!r}"
        received += data
    return received


def read_to_end(sock: socket.socket) -> bytes:
    chunks = []
    while data := sock.recv(65536):
        chunks.append(data)
    return b"".join(chunks)


def test_the_first_row_is_on_the_wire_before_the_query_ends() -> None:
    """The stream yields one row, then waits for an event the test sets
    only after it has read that row off the socket: a server that
    buffered the response would never send it (the read times out)."""
    query_may_end = asyncio.Event()

    async def body(stream, sql_text, options):
        stream.columns = ("a",)
        yield [(1,)]
        await query_may_end.wait()
        yield [(2,)]
        stream.result = StubResult()

    with running_server(StubEngine(body)) as server:
        with post(server.port) as sock:
            head = read_until_first_row(sock)
            assert head.startswith(HEAD)
            assert head.endswith(_chunk({"columns": ["a"]}) + _chunk([1]))
            server._loop.call_soon_threadsafe(query_may_end.set)
            rest = read_to_end(sock)
    assert head + rest == buffered_body(("a",), [(1,), (2,)], StubResult())


@pytest.mark.parametrize(
    "error, status",
    [
        (ReproError("no such view: Nowhere"), 400),
        (AdmissionRejected("deadline cannot be met", retry_after=1.0, tenant="t"), 429),
        (EngineClosed("QueryEngine is closed"), 503),
        (RuntimeError("compile crashed"), 500),
    ],
)
def test_an_error_before_the_first_row_keeps_its_status(error, status) -> None:
    with running_server(StubEngine(failing(error))) as server:
        response, payload = request(server, "POST", "/sql", {"sql": "Select 1"})
    assert response.status == status
    assert response.getheader("Content-Type") == "application/json"
    assert response.getheader("Connection") == "close"
    assert str(error) in json.loads(payload)["error"]


def test_a_client_disconnect_closes_the_row_stream() -> None:
    """The client reads the first row and hangs up while the stream is
    blocked.  Once rows flow again the server's next flush fails, and the
    handler closes the stream: the body's ``finally`` runs in the handler
    task, and its last chunk never comes."""
    client_gone = asyncio.Event()
    seen = {"finally": None, "last_chunk": False}

    async def body(stream, sql_text, options):
        stream.columns = ("a",)
        try:
            yield [(0,)]
            await client_gone.wait()
            for _ in range(1000):  # ~5 s of flushes if nobody stopped it
                yield [(1,)] * FLUSH_ROWS
                await asyncio.sleep(0.005)
            seen["last_chunk"] = True
            yield [(2,)]
            stream.result = StubResult()
        finally:
            seen["finally"] = time.monotonic()
            closer = asyncio.current_task().get_coro()
            seen["closed_by"] = getattr(closer, "__qualname__", repr(closer))

    with running_server(StubEngine(body)) as server:
        with post(server.port) as sock:
            read_until_first_row(sock)
        closed_at = time.monotonic()
        server._loop.call_soon_threadsafe(client_gone.set)
        while seen["finally"] is None and time.monotonic() - closed_at < 2:
            time.sleep(0.01)
        assert seen["finally"] is not None, "the stream was not closed within 2 s"
    assert seen["finally"] - closed_at < 2
    assert not seen["last_chunk"]
    # The handler closed it, not the garbage collector's finalizer task.
    assert seen["closed_by"] == "QueryServer._handle_connection"


@contextmanager
def tapped_engine_server():
    """A real engine behind the server, whose streams are tapped: every
    row the server was handed is kept with the stream's result."""
    kernel = AsyncioKernel(resident=True)
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    engine = QueryEngine(wsmed, kernel=kernel)
    taps = []

    class Tapped:
        closed = False

        def stats(self):
            return engine.stats()

        def stream(self, sql_text, *, options=None):
            rows = engine.stream(sql_text, options=options)
            tap = []
            taps.append((rows, tap))

            async def body(stream):
                async for chunk in rows:
                    stream.columns = rows.columns
                    tap.extend(chunk)
                    yield chunk
                stream.columns, stream.result = rows.columns, rows.result

            return QueryStream(body)

    server = QueryServer(Tapped(), port=0)
    ready = threading.Event()

    async def main() -> None:
        await server.start()
        ready.set()
        await server.run()

    thread = threading.Thread(target=lambda: kernel.run(main()), daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server, taps
    finally:
        server.stop()
        thread.join(10)
        engine.close()
        kernel.shutdown()


def test_query1_body_bytes_equal_the_collecting_path() -> None:
    """A streamed Query1 response is byte for byte what a server that
    collected the same execution first would have sent."""
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    reference = Counter(wsmed.sql(QUERY1_SQL).rows)
    with tapped_engine_server() as (server, taps):
        for cache in (False, True):
            options = {"mode": "parallel", "fanouts": [5, 4], "cache": cache}
            with post(server.port, QUERY1_SQL, options, timeout=60) as sock:
                raw = read_to_end(sock)
            stream, rows = taps[-1]
            assert len(rows) == 360 and Counter(rows) == reference
            assert (stream.result.cache_stats is not None) is cache
            assert raw == buffered_body(stream.columns, rows, stream.result)
