"""The same operator code running under real asyncio concurrency.

These tests demonstrate the repro note's point: web-service latency is I/O
waiting, so asyncio tasks are a faithful Python stand-in for the paper's
parallel query processes.  Timing assertions are deliberately coarse (CI
machines vary); exact timing behaviour is tested under the simulated
kernel.
"""

import time

import pytest

from repro import QUERY1_SQL, AsyncioKernel, WSMED, QueryOptions

SCALE = 0.002  # one model second = 2 wall milliseconds


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def test_central_query1_on_asyncio_matches_sim(wsmed) -> None:
    sim = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
    real = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="central", kernel=AsyncioKernel(time_scale=SCALE)),
    )
    assert real.as_bag() == sim.as_bag()
    assert real.total_calls == 311


def test_parallel_query1_on_asyncio(wsmed) -> None:
    sim = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4]))
    started = time.monotonic()
    real = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[5, 4],
            kernel=AsyncioKernel(time_scale=SCALE),
        ),
    )
    wall = time.monotonic() - started
    assert real.as_bag() == sim.as_bag()
    assert real.tree.processes_spawned == 25
    # 311 calls at ~0.0085 model-s each would take ~5.3 wall-s if strictly
    # sequential at this scale even ignoring overheads; parallel execution
    # must come in far below that.
    assert wall < 5.0


def test_adaptive_on_asyncio(wsmed) -> None:
    real = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="adaptive", kernel=AsyncioKernel(time_scale=SCALE)),
    )
    assert len(real) == 360
    assert real.tree.add_stages >= 1


def test_batched_parallel_query1_on_asyncio(wsmed) -> None:
    from dataclasses import replace

    sim = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4]))
    costs = replace(wsmed.process_costs, batch_size=4)
    real = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[5, 4],
            process_costs=costs,
            kernel=AsyncioKernel(time_scale=SCALE),
        ),
    )
    # Batching changes the messaging, never the answer — also under real
    # asyncio concurrency, where message arrival order is not scripted.
    assert real.as_bag() == sim.as_bag()
    assert real.message_stats.param_batches > 0
    assert real.message_stats.batched_results > 0


def test_model_elapsed_consistent_across_kernels(wsmed) -> None:
    sim = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[4, 4]))
    real = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[4, 4],
            kernel=AsyncioKernel(time_scale=SCALE),
        ),
    )
    # Real execution adds scheduling overhead on top of modelled time, so
    # in model terms it can only be slower.  (At small time scales the
    # event-loop overhead dominates, so no useful upper bound exists.)
    assert real.elapsed >= sim.elapsed * 0.8
    assert real.as_bag() == sim.as_bag()
