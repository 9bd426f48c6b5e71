"""A failed query must not poison the next query on the same warm pool.

Under ``on_error="fail"`` several children can hit a fault in the same
round.  The first ``ChildError`` aborts the query; the others are still
in (or on their way to) the pool's inbox when the engine releases the
warm pool.  They describe calls of an invocation that no longer exists,
so the next query must replace those dead children and carry on — not
fail with the previous query's error.
"""

from dataclasses import replace

import pytest

from benchmarks.worlds import WorldSpec, build_world
from repro import AsyncioKernel, QueryEngine, QueryOptions, SimKernel
from repro.util.errors import ReproError

OPTIONS = QueryOptions(mode="parallel", fanouts=[4])

KERNELS = {
    "sim": lambda: SimKernel(resident=True),
    "asyncio": lambda: AsyncioKernel(resident=True, time_scale=0.0005),
}


@pytest.mark.parametrize("make_kernel", KERNELS.values(), ids=KERNELS.keys())
def test_stale_child_errors_do_not_fail_the_next_query(make_kernel) -> None:
    # One dependent level whose operation fails the first attempt for each
    # argument, and as many arguments as children: the first round puts a
    # doomed call on every child.  The first fault aborts query 1; the
    # other three land while query 2 runs.  Every retry succeeds.
    world = build_world(
        WorldSpec(seed=11, chains=1, depth=1, roots=4, fanout=3, flaky_ops=1)
    )
    sql = world.chain_sql(0)
    engine = QueryEngine(world.build(), kernel=make_kernel())
    try:
        with pytest.raises(ReproError, match="q1 failed.*transient failure"):
            engine.sql(sql, options=OPTIONS)
        second = engine.sql(sql, options=OPTIONS)
        third = engine.sql(sql, options=OPTIONS)
        stats = engine.stats()
    finally:
        engine.close()
    healthy = build_world(replace(world.spec, flaky_ops=0))
    expected = sorted(healthy.build().sql(sql).rows)
    assert len(expected) > 4
    assert sorted(second.rows) == expected
    assert sorted(third.rows) == expected
    # Both later queries ran on query 1's pool; its faulted children were
    # replaced, not reported as failures of the query that found them.
    assert stats.warm_leases == 2
    assert second.fault_stats.failed_calls == third.fault_stats.failed_calls == 0
    assert second.fault_stats.respawns + third.fault_stats.respawns == 3
