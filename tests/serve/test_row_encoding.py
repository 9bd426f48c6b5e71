"""The server's one prebuilt JSON encoder writes exactly what
``json.dumps(payload, default=str)`` writes, for rows and for every dict
the server sends, and frames each line as one HTTP chunk.

The reference frame is ``test_row_streaming._chunk``: the bytes a server
that called ``json.dumps`` per line wrote for that line.
"""

import asyncio
import importlib.util
import json
import json.encoder
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import server as server_module
from repro.serve.server import FLUSH_ROWS, _encode, _frames
from tests.serve.test_row_streaming import (
    HEAD,
    _chunk,
    buffered_body,
    post,
    read_to_end,
)
from tests.serve.test_serve_hardening import StubEngine, StubResult, running_server


class Opaque:
    """Not a JSON type: the encoder writes its ``str`` (``default=str``)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return f'<opaque "{self.text}" é>'


TRICKY_STRINGS = ["", '"', "\\", '\\"\\', "\x00\x1f\x7f", "\ud800", "\udfff x", "é☃𝄞"]
TRICKY_NUMBERS = [0.0, -0.0, 1e300, -1e300, math.nan, math.inf, -math.inf, 2**64, -(2**100)]

texts = st.one_of(
    st.sampled_from(TRICKY_STRINGS),
    # Every code point, lone surrogates and control characters included.
    st.text(st.characters(blacklist_categories=())),
)
atoms = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(TRICKY_NUMBERS),
    st.booleans(),
    st.none(),
    st.builds(Opaque, texts),
)
rows = st.lists(atoms, max_size=8).map(tuple)
numbers = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True))

headers = st.builds(lambda columns: {"columns": columns}, st.lists(texts, max_size=5))
trailers = st.fixed_dictionaries(
    {
        "rows": st.integers(min_value=0),
        "elapsed": numbers,
        "total_calls": st.integers(min_value=0),
        "mode": texts,
    },
    optional={"cache": st.dictionaries(texts, numbers, max_size=6), "trace_file": texts},
)
error_trailers = st.fixed_dictionaries({"error": texts, "rows_sent": st.integers(min_value=0)})
error_bodies = st.fixed_dictionaries(
    {"error": texts},
    optional={"tenant": st.one_of(st.none(), texts), "retry_after": numbers},
)
payloads = st.one_of(rows, headers, trailers, error_trailers, error_bodies)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_each_line_and_its_frame_match_json_dumps(payload) -> None:
    # The server encodes a row tuple as it comes; the reference, as a list.
    reference = list(payload) if isinstance(payload, tuple) else payload
    assert _encode(payload) + "\n" == json.dumps(reference, default=str) + "\n"
    assert _frames([payload]) == _chunk(reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, min_size=1, max_size=20))
def test_a_chunk_of_rows_frames_one_http_chunk_per_row(chunk) -> None:
    assert _frames(chunk) == b"".join(_chunk(list(row)) for row in chunk)


TRICKY_ROWS = [
    tuple(TRICKY_STRINGS[i % len(TRICKY_STRINGS)] for i in range(k, k + 3))
    + (TRICKY_NUMBERS[k % len(TRICKY_NUMBERS)], k % 2 == 0, None, Opaque(str(k)))
    for k in range(2 * FLUSH_ROWS + 5)
]


def test_a_streamed_body_of_tricky_rows_equals_the_buffered_one() -> None:
    columns = ("naïve", 'q"uote', "back\\slash", "n", "b", "none", "opaque")
    chunks = [TRICKY_ROWS[:1], TRICKY_ROWS[1:70], TRICKY_ROWS[70:]]

    async def body(stream, sql_text, options):
        stream.columns = columns
        for chunk in chunks:
            yield chunk
        stream.result = StubResult()

    with running_server(StubEngine(body)) as server:
        sock = post(server.port)
        with sock:
            received = read_to_end(sock)
    assert received == buffered_body(columns, TRICKY_ROWS, StubResult())


@pytest.fixture
def counted_writes(monkeypatch):
    """Counts ``_frames`` calls and keeps the bytes of every socket write
    the server makes (the client side reads a raw socket)."""
    seen = {"frames": 0, "writes": []}
    frames = server_module._frames
    write = asyncio.StreamWriter.write

    def counting_frames(payloads):
        seen["frames"] += 1
        return frames(payloads)

    def recording_write(writer, data):
        seen["writes"].append(bytes(data))
        return write(writer, data)

    monkeypatch.setattr(server_module, "_frames", counting_frames)
    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    return seen


def _row_lines(data: bytes) -> int:
    """Row lines in a write: NDJSON lines that are JSON arrays."""
    return data.count(b"\r\n[")


def test_rows_are_framed_once_per_socket_write(counted_writes) -> None:
    """One-row chunks, as a warm Query1 yields them: the writes keep their
    cadence (the first row with the head, then one per FLUSH_ROWS rows,
    the rest with the trailer) and each write's rows are framed in one
    call, plus one call each for the column header and the trailer."""
    rows = [(k,) for k in range(2 * FLUSH_ROWS + 5)]

    async def body(stream, sql_text, options):
        stream.columns = ("k",)
        for row in rows:
            yield [row]
        stream.result = StubResult()

    with running_server(StubEngine(body)) as server:
        with post(server.port) as sock:
            received = read_to_end(sock)
    writes = counted_writes["writes"]
    assert received == buffered_body(("k",), rows, StubResult())
    assert b"".join(writes) == received
    assert [_row_lines(data) for data in writes] == [1, FLUSH_ROWS, FLUSH_ROWS, 4]
    assert writes[0].startswith(HEAD) and writes[-1].endswith(b"0\r\n\r\n")
    assert counted_writes["frames"] <= len(writes) + 2


def test_a_failure_after_more_than_a_flush_of_rows_loses_none() -> None:
    """150 one-row chunks, then the query fails: the 49 rows received
    since the last write leave ahead of the error trailer, so every row
    is on the wire and ``rows_sent`` counts them all."""
    rows = [(k,) for k in range(150)]

    async def body(stream, sql_text, options):
        stream.columns = ("k",)
        for row in rows:
            yield [row]
        raise RuntimeError("query failed after 150 rows")

    with running_server(StubEngine(body)) as server:
        with post(server.port) as sock:
            received = read_to_end(sock)
    trailer = {"error": "RuntimeError: query failed after 150 rows", "rows_sent": 150}
    lines = [{"columns": ["k"]}, *map(list, rows), trailer]
    assert received == HEAD + b"".join(map(_chunk, lines)) + b"0\r\n\r\n"


@pytest.fixture(scope="module")
def pure_python_server():
    """A second copy of ``repro.serve.server`` loaded with no ``_json``
    accelerator, beside the real module, which stays as it is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        spec = importlib.util.spec_from_file_location(
            "repro.serve._server_without_accelerator", server_module.__file__
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    assert module.c_make_encoder is None
    assert module._pieces is not server_module._pieces
    return module


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_without_the_accelerator_each_frame_still_matches_json_dumps(
    pure_python_server, payload
) -> None:
    reference = list(payload) if isinstance(payload, tuple) else payload
    assert pure_python_server._encode(payload) == json.dumps(reference, default=str)
    assert pure_python_server._frames([payload]) == _chunk(reference)
