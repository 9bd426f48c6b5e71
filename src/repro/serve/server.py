"""A small stdlib-only HTTP server over a resident :class:`QueryEngine`.

Protocol (all bodies JSON, all responses either JSON or NDJSON):

``POST /sql``
    Request body::

        {"sql": "Select ...",          -- required
         "trace": false,               -- per-request span tracing
         "options": {                  -- QueryOptions fields, all optional
           "mode": "parallel",         -- central | parallel | adaptive
           "fanouts": [5, 4],
           "adaptation": {...},        -- AdaptationParams fields
           "retries": 0,
           "on_error": "retry",
           "cache": true,              -- false, or {"max_entries": N, "ttl": T}
           "name": "Query",
           "optimize": "cost",         -- heuristic | cost (planner level)
           "tenant": "analytics",      -- fair-queue admission identity
           "deadline_ms": 60000}}      -- model-ms deadline; unmeetable -> 429

    Any other top-level or ``"options"`` field is a 400.

    ``tenant`` and ``deadline_ms`` are honoured under either admission
    policy: a query whose deadline the measured service rate cannot meet
    is shed before it runs and gets ``429 Too Many Requests`` with a
    ``Retry-After`` header (the controller's wait estimate, whole
    seconds).

    ``"trace"`` must be a JSON boolean when present.

    Response is ``application/x-ndjson`` streamed as chunked transfer
    encoding: one header line carrying the column names, one line per
    result row, and one trailer line with the execution statistics (and,
    for traced requests, the path of the exported Chrome trace file)::

        {"columns": ["placename", "state"]}
        ["Decatur", "GA"]
        ...
        {"rows": 360, "elapsed": 48.3, "total_calls": 311, ...}

    The handler consumes the engine's row stream
    (:meth:`repro.engine.QueryEngine.stream`) itself.  Nothing is sent
    until the first row exists, so a query that fails before it — shed
    (429), engine closed (503), bad SQL (400), anything else (500) — is
    answered with its status code.  The status line, the column header
    and the first row then leave in one write while the query still
    runs; later rows go out :data:`FLUSH_ROWS` at a time, and the last
    write carries the trailer and the terminating chunk.  A query that
    fails after its first row ends the body with an error trailer,
    ``{"error": ..., "rows_sent": N}``.  A client that disconnects is
    noticed at the next flush: the server closes the row stream, which
    stops the query's pool invocations and returns its admission ticket.
    Every response carries ``Connection: close``.

    Every JSON text — each NDJSON line, and each error, ``/stats`` and
    ``/healthz`` body — is written by one encoder built at import (the
    ``_json`` accelerator's, with ``default=str``).  Rows leave as the
    rows of one write, framed in one pass: those that arrive between two
    writes, whatever engine chunks they came in, become their
    chunked-transfer bytes in one call right before the write.

``GET /stats``
    The engine's resident-state snapshot
    (:meth:`repro.engine.QueryEngine.stats`) as JSON.

``GET /healthz``
    Liveness probe.

Requests carry their body with ``Content-Length``.  One with
``Transfer-Encoding`` is answered ``411 Length Required``, two
``Content-Length`` headers that disagree a 400, and a request head over
64 KiB ``431 Request Header Fields Too Large``.

The server's accept loop runs *inside* the engine's resident kernel
(``engine.kernel.run(server.run())``), so queries execute on the same
event loop that owns the warm pools — including the OS worker fleet when
the kernel is a :class:`~repro.runtime.multiprocess.ProcessKernel`
(``repro serve --kernel process``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import re
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, Optional

from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig
from repro.engine import AdmissionRejected, EngineClosed
from repro.obs import TraceRecorder
from repro.render import write_chrome_trace
from repro.util.errors import ReproError
from repro.wsmed.options import QueryOptions

_MAX_BODY = 4 * 1024 * 1024
#: Longest request head (request line and headers) read; past it, a 431.
_MAX_HEAD = 64 * 1024
_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


#: Rows the ``POST /sql`` writer coalesces into one socket write (and
#: drain) after the first row, which leaves on its own.
FLUSH_ROWS = 100

_RESPONSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"Connection: close\r\n\r\n"
)


# Every JSON text the server writes comes from one encoder built at
# import, with ``dumps(payload, default=str)``'s output and none of its
# per-call set-up.  No circular check: rows are flat tuples of atoms and
# the other payloads flat dicts.  The output is ASCII (non-ASCII is
# escaped), so its length in characters is its length in bytes.
# ``_pieces(payload, 0)`` is the text of ``payload`` in pieces.
if c_make_encoder is not None:
    _pieces = c_make_encoder(
        None, str, encode_basestring_ascii, None, ": ", ", ", False, False, True
    )

else:  # no _json accelerator: the pure-Python encoder writes the same text
    _python_encoder = JSONEncoder(default=str)

    def _pieces(payload: Any, _level: int) -> Iterable[str]:
        return _python_encoder.iterencode(payload)


def _encode(payload: Any) -> str:
    return "".join(_pieces(payload, 0))


def _frames(payloads: Iterable[Any]) -> bytes:
    """Chunked-transfer bytes for ``payloads``: one NDJSON line each, one
    HTTP chunk per line.  The server frames the rows of one socket write
    in one call; with the accelerator, no Python function runs per row."""
    lines = ["".join(_pieces(payload, 0)) for payload in payloads]
    return "".join(
        [f"{len(line) + 1:x}\r\n{line}\n\r\n" for line in lines]
    ).encode("ascii")


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class QueryServer:
    """HTTP front end bound to one resident :class:`QueryEngine`.

    ``port=0`` binds an ephemeral port (``self.port`` holds the real one
    after :meth:`start`).  ``trace_dir`` is where per-request Chrome
    trace files land for ``"trace": true`` requests.  ``default_optimize``
    is the planner level used when a request doesn't set ``"optimize"``
    (``repro serve --optimize cost`` makes the cost-based optimizer the
    server default).
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_dir: str = "traces",
        default_optimize: str = "heuristic",
    ) -> None:
        QueryOptions(optimize=default_optimize)  # rejects an unknown level
        self.engine = engine
        self.host = host
        self.port = port
        self.trace_dir = trace_dir
        self.default_optimize = default_optimize
        self.requests_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._trace_ids = itertools.count(1)
        # Live connection-handler tasks; run() drains them at shutdown so
        # no query dies mid-NDJSON-stream when the kernel goes down.
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (inside the kernel's event loop)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_HEAD
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until :meth:`stop` is called; the ``repro serve`` body.

        Shutdown closes the listener first (no new connections), then
        waits for in-flight handlers to finish their streams — the caller
        tears the engine down only after ``run`` returns, so a query that
        was mid-NDJSON-stream when stop() fired still ends with its
        trailer and terminating chunk instead of a severed body.
        """
        await self.start()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._handlers:
                await asyncio.gather(
                    *list(self._handlers), return_exceptions=True
                )
            self._server = None

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread (or a signal)."""
        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already closed

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": str(error)}
                )
                return
            self.requests_served += 1
            try:
                if method == "POST" and path == "/sql":
                    await self._serve_sql(writer, body)
                elif method == "GET" and path == "/stats":
                    await self._send_json(
                        writer, 200, self.engine.stats().as_dict()
                    )
                elif method == "GET" and path == "/healthz":
                    await self._send_json(
                        writer,
                        200,
                        {"status": "ok", "queries": self.engine.stats().queries},
                    )
                elif path in ("/sql", "/stats", "/healthz"):
                    raise _HttpError(405, f"method {method} not allowed on {path}")
                else:
                    raise _HttpError(404, f"no such endpoint: {path}")
            except _HttpError as error:
                await self._send_json(writer, error.status, {"error": str(error)})
            except AdmissionRejected as error:
                # Load shed: tell the client when a retry could make it.
                await self._send_json(
                    writer,
                    429,
                    {
                        "error": str(error),
                        "tenant": error.tenant,
                        "retry_after": error.retry_after,
                    },
                    headers={
                        "Retry-After": str(
                            max(1, math.ceil(error.retry_after))
                        )
                    },
                )
            except EngineClosed as error:
                await self._send_json(writer, 503, {"error": str(error)})
            except ReproError as error:
                await self._send_json(writer, 400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - report, keep serving
                await self._send_json(
                    writer, 500, {"error": f"{type(error).__name__}: {error}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(
                431, f"request head over {_MAX_HEAD} bytes"
            ) from None
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "malformed HTTP request") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        lengths = []
        for line in lines[1:]:
            key, colon, value = line.partition(":")
            if not colon:
                continue
            key = key.strip().lower()
            if key == "transfer-encoding":
                raise _HttpError(
                    411, "Transfer-Encoding is not supported; send Content-Length"
                )
            if key == "content-length":
                lengths.append(value.strip())
        distinct = list(dict.fromkeys(lengths))
        if len(distinct) > 1:
            raise _HttpError(
                400,
                f"conflicting Content-Length headers: {distinct[0]!r} "
                f"and {distinct[1]!r}",
            )
        raw_length = (distinct[0] if distinct else "") or "0"
        # ASCII digits only: int() would also take "+12", "1_2" and "-0".
        if not (raw_length.isascii() and raw_length.isdigit()):
            kind = "negative" if raw_length.startswith("-") else "malformed"
            raise _HttpError(400, f"{kind} Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"request body over {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    # -- endpoints ---------------------------------------------------------

    async def _serve_sql(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        if not body:
            raise _HttpError(400, "POST /sql requires a JSON request body")
        sql_text, trace, option_kwargs = self._parse_sql_request(body)
        recorder = TraceRecorder() if trace else None
        if recorder is not None:
            option_kwargs["obs"] = recorder
        try:
            options = QueryOptions(**option_kwargs)
        except TypeError as error:
            raise _HttpError(400, f"bad query options: {error}")
        if self.engine.closed:
            raise _HttpError(503, "engine is shut down")
        stream = self.engine.stream(sql_text, options=options)
        chunks = aiter(stream)
        # Admission, compilation and the wait for the first row: whatever
        # fails here gets its own status code, since no byte is sent yet.
        first = await anext(chunks, None)
        # The next write carries the head (first write only), then the
        # rows received since the last write, framed in one pass whatever
        # chunks they arrived in, then its tail.
        head = [_RESPONSE_HEAD, _frames([{"columns": list(stream.columns)}])]
        pending: list = []
        sent = 0

        async def flush(*tail: bytes) -> None:
            writer.write(b"".join([*head, _frames(pending), *tail]))
            head.clear()
            pending.clear()
            await writer.drain()

        # From here on the answer is a 200 (its header leaves with the
        # first row): any failure — including cancellation when the
        # kernel shuts down mid-stream — must still end the body with a
        # well-formed error trailer and the terminating chunk, never a
        # severed stream.
        error_trailer: str | None = None
        interrupted: BaseException | None = None
        try:
            if first is not None:
                # The status line, the columns and the first row leave
                # together; later rows in writes of FLUSH_ROWS.
                pending += first
                sent = len(first)
                await flush()
                async for chunk in chunks:
                    pending += chunk
                    sent += len(chunk)
                    if len(pending) >= FLUSH_ROWS:
                        await flush()
        except (ConnectionError, asyncio.IncompleteReadError):
            raise  # client is gone; there is nobody to finish the body for
        except BaseException as error:  # noqa: BLE001 - trailer then re-raise
            error_trailer = (
                "stream interrupted"
                if isinstance(error, asyncio.CancelledError)
                else f"{type(error).__name__}: {error}"
            )
            interrupted = error
        finally:
            # A disconnected client or a failed write leaves the query
            # mid-stream: closing the stream stops it and releases its
            # pools and admission ticket.
            await stream.aclose()
        if error_trailer is not None:
            trailer: dict[str, Any] = {"error": error_trailer, "rows_sent": sent}
        else:
            result = stream.result
            trailer = {
                "rows": sent,
                "elapsed": result.elapsed,
                "total_calls": result.total_calls,
                "mode": result.mode,
            }
            if result.cache_stats is not None:
                trailer["cache"] = result.cache_stats.as_dict()
            if recorder is not None and result.spans is not None:
                trailer["trace_file"] = self._write_trace(result.spans, option_kwargs)
        # Rows still pending leave ahead of the trailer, an error one too,
        # so ``rows_sent`` counts exactly the row lines on the wire.
        await flush(_frames([trailer]), b"0\r\n\r\n")
        if isinstance(interrupted, asyncio.CancelledError):
            raise interrupted

    def _write_trace(self, spans, option_kwargs: dict) -> str:
        """Export a traced request's spans; the file's path."""
        os.makedirs(self.trace_dir, exist_ok=True)
        stem = _SAFE_NAME.sub("-", option_kwargs.get("name", "query")) or "query"
        path = os.path.join(self.trace_dir, f"{stem}-{next(self._trace_ids)}.trace.json")
        write_chrome_trace(spans, path)
        return path

    #: QueryOptions fields expressible in the ``"options"`` object of the
    #: POST /sql JSON schema.
    _OPTION_FIELDS = frozenset(
        {
            "mode",
            "fanouts",
            "adaptation",
            "retries",
            "cache",
            "on_error",
            "name",
            "optimize",
            "tenant",
            "deadline_ms",
        }
    )

    def _parse_sql_request(self, body: bytes) -> tuple[str, bool, dict]:
        """Returns ``(sql, trace, option_kwargs)`` for :class:`QueryOptions`.

        Per-query knobs live in the nested ``"options"`` object only.
        """
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(request, dict) or not isinstance(
            request.get("sql"), str
        ):
            raise _HttpError(400, 'request must be a JSON object with a "sql" string')
        unknown = set(request) - {"sql", "trace", "options"}
        if unknown:
            raise _HttpError(400, f"unknown request fields: {sorted(unknown)}")
        fields = request.get("options", {})
        if not isinstance(fields, dict):
            raise _HttpError(400, '"options" must be a JSON object')
        unknown = set(fields) - self._OPTION_FIELDS
        if unknown:
            raise _HttpError(400, f"unknown options fields: {sorted(unknown)}")
        fields.setdefault("optimize", self.default_optimize)
        adaptation = fields.get("adaptation")
        if isinstance(adaptation, dict):
            try:
                fields["adaptation"] = AdaptationParams(**adaptation)
            except TypeError as error:
                raise _HttpError(400, f"bad adaptation config: {error}")
        elif adaptation is not None:
            raise _HttpError(400, f"bad adaptation field: {adaptation!r}")
        cache = fields.get("cache")
        if cache is True:
            fields["cache"] = CacheConfig(enabled=True)
        elif isinstance(cache, dict):
            try:
                fields["cache"] = CacheConfig(enabled=True, **cache)
            except (TypeError, ReproError) as error:
                raise _HttpError(400, f"bad cache config: {error}")
        elif cache is False:
            fields["cache"] = CacheConfig(enabled=False)
        elif cache is None:
            fields.pop("cache", None)
        else:
            raise _HttpError(400, f"bad cache field: {cache!r}")
        for name in ("tenant", "deadline_ms"):
            if fields.get(name) is None:
                fields.pop(name, None)
        trace = request.get("trace", False)
        if not isinstance(trace, bool):
            raise _HttpError(400, f'"trace" must be a JSON boolean: {trace!r}')
        return request["sql"], trace, fields

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = _encode(payload).encode("ascii")
        text = _STATUS_TEXT.get(status, "Error")
        extra = "".join(
            f"{key}: {value}\r\n" for key, value in (headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        writer.write(body)
        await writer.drain()
