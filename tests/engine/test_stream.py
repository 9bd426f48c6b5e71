"""``QueryEngine.stream``: rows leave the engine while the query runs, and
closing the stream early releases everything the query held.

All on ``SimKernel``, so every clock reading below is exact model time.
"""

from collections import Counter

import pytest

from repro import QUERY1_SQL, QueryOptions, TraceRecorder
from repro.engine import EngineClosed
from repro.util.errors import ReproError

from tests.engine.test_engine import PARALLEL, fresh_engine, fresh_wsmed


def _first_chunk_then_close(engine, options=PARALLEL):
    """Pull one chunk off a Query1 stream, then close it; what the
    consumer saw: (columns, first chunk, result after close)."""

    async def consume():
        stream = engine.stream(QUERY1_SQL, options=options)
        async for chunk in stream:
            break
        await stream.aclose()
        return stream.columns, chunk, stream.result

    return engine.kernel.run(consume())


def test_closing_after_the_first_chunk_releases_the_query() -> None:
    """The disconnect path: the consumer walks away after one row.  The
    admission ticket comes back, no query stays active, and the next
    Query1 on the same warm tree returns the exact 360-row bag."""
    reference = Counter(fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL).rows)
    engine = fresh_engine()
    engine.sql(QUERY1_SQL, options=PARALLEL)  # warm the tree
    columns, chunk, result = _first_chunk_then_close(engine)
    assert columns == ("placename", "state")
    assert len(chunk) == 1
    assert result is None  # an abandoned query has no result
    stats = engine.stats()
    assert stats.active == 0
    assert stats.queries == 1  # only completed queries count
    assert engine.admission._active == 0  # the ticket came back
    again = engine.sql(QUERY1_SQL, options=PARALLEL)
    assert len(again.rows) == 360
    assert Counter(again.rows) == reference
    assert engine.stats().warm_leases >= 2
    engine.close()


def test_closing_a_cold_query_early_leaves_a_usable_engine() -> None:
    engine = fresh_engine()
    _first_chunk_then_close(engine)
    assert engine.stats().active == 0
    assert len(engine.sql(QUERY1_SQL, options=PARALLEL).rows) == 360
    engine.close()


def test_stream_chunks_are_the_rows_of_sql_in_order() -> None:
    """A cold stream on a fresh engine replays the one-shot query: the
    concatenated chunks are ``WSMED.sql``'s rows in its order, and the
    result after the last chunk carries the same counters."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)
    engine = fresh_engine()

    async def consume():
        stream = engine.stream(QUERY1_SQL, options=PARALLEL)
        chunks = [chunk async for chunk in stream]
        return stream, chunks

    stream, chunks = engine.kernel.run(consume())
    assert all(chunks)
    assert [row for chunk in chunks for row in chunk] == seed.rows
    assert stream.columns == seed.columns
    assert stream.result.total_calls == seed.total_calls == 311
    assert stream.result.message_stats == seed.message_stats
    assert engine.stats().queries == 1
    engine.close()


def test_the_first_row_arrives_long_before_the_query_ends() -> None:
    """What streaming buys: under an FF_APPLYP coordinator a row is yielded
    the moment a child delivers it, not when the last call returns."""
    engine = fresh_engine()
    engine.sql(QUERY1_SQL, options=PARALLEL)
    kernel = engine.kernel

    async def consume():
        started = kernel.now()
        stream = engine.stream(QUERY1_SQL, options=PARALLEL)
        first_at = None
        async for _ in stream:
            if first_at is None:
                first_at = kernel.now() - started
        return first_at, kernel.now() - started

    first_at, total = kernel.run(consume())
    assert 0 < first_at < 0.5 * total
    engine.close()


def test_errors_before_the_first_chunk_release_admission() -> None:
    engine = fresh_engine()

    async def first_chunk(sql):
        async for chunk in engine.stream(sql, options=PARALLEL):
            return chunk

    with pytest.raises(ReproError):
        engine.kernel.run(first_chunk("Select nothing From Nowhere"))
    assert engine.stats().active == 0
    assert engine.admission._active == 0
    engine.close()
    with pytest.raises(EngineClosed):
        engine.kernel.run(first_chunk(QUERY1_SQL))


def test_a_traced_stream_closes_its_query_span_when_abandoned() -> None:
    engine = fresh_engine()
    recorder = TraceRecorder()
    _first_chunk_then_close(engine, options=QueryOptions(
        mode="parallel", fanouts=[5, 4], obs=recorder
    ))
    (query,) = [span for span in recorder.store if span.category == "query"]
    assert query.end is not None
    assert engine.stats().active == 0
    engine.close()
