"""The server's one prebuilt JSON encoder writes exactly what
``json.dumps(payload, default=str)`` writes, for rows and for every dict
the server sends, and frames each line as one HTTP chunk.

The reference frame is ``test_row_streaming._chunk``: the bytes a server
that called ``json.dumps`` per line wrote for that line.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.server import FLUSH_ROWS, _encode, _frames
from tests.serve.test_row_streaming import _chunk, buffered_body, post, read_to_end
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
