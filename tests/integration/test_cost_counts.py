"""Per-query cost counts, pinned.

Wall-clock benchmarks are noisy; the number of scheduler events, protocol
messages and pipe envelopes a query costs is not.  These bounds were
measured when the pull-chain interpreter, the folded end-of-call, the
one-drain-per-instant channels and the framed worker pipe landed (warm
Query1: 7,299 -> 1,972 kernel events, 1,340 -> 1,080 messages), and again
when the memo answered whole plan functions (1,972 -> 8 events, 1,080 -> 0
messages); a change that re-adds a hop fails here, by name, instead of in
a benchmark.
"""

import pytest

from repro import (
    QUERY1_SQL,
    CacheConfig,
    ProcessCosts,
    ProcessKernel,
    QueryEngine,
    QueryOptions,
    SimKernel,
    WSMED,
)

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def test_warm_query1_kernel_events_and_messages() -> None:
    """The ``engine_warm`` configuration: 311 cache hits, no broker call,
    and no dispatch — the memo holds each parameter tuple's plan-function
    bag, so the pool answers all 50 without a message."""
    system = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    system.import_all()
    engine = QueryEngine(system)
    try:
        for _ in range(2):
            engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        before = engine.kernel.events_processed
        result = engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        events = engine.kernel.events_processed - before
    finally:
        engine.close()
    assert result.total_calls == 0 and result.cache_stats.hits == 311
    assert result.cache_stats.plan_hits == 50
    assert events <= 8
    assert result.message_stats.total_messages <= 100


@pytest.mark.parametrize(
    "options, max_events",
    [(Q1_PARALLEL, 3_400), (QueryOptions(mode="adaptive"), 3_600)],
    ids=["parallel", "adaptive"],
)
def test_one_shot_query1_kernel_events_and_messages(options, max_events) -> None:
    system = WSMED(profile="paper")
    system.import_all()
    kernel = SimKernel()
    result = system.sql(QUERY1_SQL, options=options.replace(kernel=kernel))
    assert result.total_calls == 311
    assert kernel.events_processed <= max_events
    assert result.message_stats.total_messages <= 1_080


def test_process_wire_envelopes_and_frames_per_query(monkeypatch) -> None:
    """The ``process_wire`` configuration: every envelope crosses the pipe
    inside a frame — one per coordinator loop tick or worker burst — counted
    on the coordinator's side of the pipe, both directions.  A child's
    telemetry rides its call-ending messages, so none of these is a trace
    event of its own."""
    import repro.runtime.workers as workers

    traffic = {"envelopes": 0, "frames": 0}
    write, read = workers.write_frame, workers.read_frames

    def counted(frames):
        traffic["envelopes"] += sum(len(envelopes) for envelopes in frames)
        traffic["frames"] += len(frames)
        return frames

    def read_counted(conn, pending):
        frames, closed = read(conn, pending)
        return counted(frames), closed

    monkeypatch.setattr(workers, "write_frame", lambda conn, env: write(conn, counted([env])[0]))
    monkeypatch.setattr(workers, "read_frames", read_counted)
    system = WSMED(profile="fast")
    system.import_all()
    engine = QueryEngine(system, kernel=ProcessKernel(workers=1, time_scale=1e-6))
    try:
        engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
        before = dict(traffic)
        queries = 3
        for _ in range(queries):
            assert engine.sql(QUERY1_SQL, options=Q1_PARALLEL).total_calls == 311
        after = dict(traffic)
    finally:
        engine.close()
    envelopes = (after["envelopes"] - before["envelopes"]) / queries
    frames = (after["frames"] - before["frames"]) / queries
    assert envelopes <= 1_100
    assert frames <= envelopes / 2
