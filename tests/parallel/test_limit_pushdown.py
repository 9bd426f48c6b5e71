"""LIMIT over FF_APPLYP/AFF_APPLYP pools.

A ``LIMIT k`` stops consuming after the k-th row and closes the stream
below it.  A pool under that stream stops the one way a pool invocation
ever stops early: its generator is closed, the input pump cancelled and
the per-invocation state reset.  The rows are the first k in arrival
order, the calls not yet dispatched are never made, and the pool — with
whatever its children were still running — stays usable: on a resident
engine the next query leases it warm and drops the late messages.
"""

from collections import Counter

import pytest

from benchmarks.worlds import WorldSpec, build_world
from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    CacheConfig,
    QueryEngine,
    QueryOptions,
    SimKernel,
    WSMED,
)
from repro.parallel.costs import ProcessCosts
from repro.runtime.multiprocess import ProcessKernel

LIMIT = 3


@pytest.fixture(scope="module")
def world():
    return build_world(WorldSpec(seed=17, chains=1, depth=2, roots=5, fanout=3))


def _options(mode: str, **extra) -> QueryOptions:
    if mode == "parallel":
        extra.setdefault("fanouts", [2, 2])
    return QueryOptions(mode=mode, **extra)


@pytest.mark.parametrize("mode", ["parallel", "adaptive"])
def test_pushdown_saves_calls_and_keeps_the_prefix(world, mode) -> None:
    wsmed = world.build()
    full = wsmed.sql(world.chain_sql(0), options=_options(mode))
    limited = wsmed.sql(world.chain_sql(0, limit=LIMIT), options=_options(mode))
    assert list(limited.rows) == list(full.rows)[:LIMIT]
    assert limited.total_calls < full.total_calls


@pytest.mark.parametrize("mode", ["parallel", "adaptive"])
def test_limit_above_a_distinct_stops_the_pool_below_it(world, mode) -> None:
    """The close must travel through the operators between LIMIT and pool."""
    wsmed = world.build()
    distinct_sql = world.chain_sql(0).replace("SELECT", "SELECT DISTINCT")
    full = wsmed.sql(distinct_sql, options=_options(mode))
    limited = wsmed.sql(distinct_sql + f"LIMIT {LIMIT}\n", options=_options(mode))
    assert list(limited.rows) == list(full.rows)[:LIMIT]
    assert limited.total_calls < full.total_calls


def test_pushdown_survives_transient_faults() -> None:
    """Retried faults before the stop do not disturb the prefix.

    The flaky providers count attempts, so each run gets a *fresh* world
    built from the same spec — identical tables, identical fault
    schedule, identical deterministic replay up to the stop.
    """
    spec = WorldSpec(seed=5, chains=1, depth=2, roots=5, fanout=3, flaky_ops=2)

    def run(limit):
        world = build_world(spec)
        return world.build().sql(
            world.chain_sql(0, limit=limit),
            options=_options("parallel", retries=1),
        )

    full = run(None)
    limited = run(LIMIT)
    assert list(limited.rows) == list(full.rows)[:LIMIT]
    assert limited.total_calls < full.total_calls


def test_central_limit_unchanged(world) -> None:
    """No pool below the LIMIT: the same truncation, nothing to stop."""
    wsmed = world.build()
    full = wsmed.sql(world.chain_sql(0))
    limited = wsmed.sql(world.chain_sql(0, limit=LIMIT))
    assert list(limited.rows) == list(full.rows)[:LIMIT]


# -- a truncated invocation leaves a usable warm pool -------------------------------

QUERY1_LIMITED = QUERY1_SQL + "LIMIT 10\n"

KERNELS = {
    "sim": lambda: SimKernel(resident=True),
    "asyncio": lambda: AsyncioKernel(resident=True, time_scale=0.0005),
    "process": lambda: ProcessKernel(workers=2),
}


def _paper_wsmed() -> WSMED:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    return wsmed


@pytest.fixture(scope="module")
def query1_bag():
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    return Counter(_paper_wsmed().sql(QUERY1_SQL, options=options).rows)


def _limit_full_limit(kernel_name: str, share: bool, cache=None, **cost_knobs):
    """LIMIT query, full query, LIMIT query on one resident engine."""
    costs = ProcessCosts(**cost_knobs).scaled(0.01) if cost_knobs else None
    options = QueryOptions(
        mode="parallel", fanouts=[5, 4], process_costs=costs, cache=cache
    )
    engine = QueryEngine(_paper_wsmed(), kernel=KERNELS[kernel_name](), share=share)
    try:
        results = [
            engine.sql(sql, options=options)
            for sql in (QUERY1_LIMITED, QUERY1_SQL, QUERY1_LIMITED)
        ]
        return results, engine.stats()
    finally:
        engine.close()


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_limit_then_full_then_limit_on_one_engine(kernel_name, query1_bag) -> None:
    """Each query text keeps its own tree: the full query is exact to the
    call, and the second LIMIT runs on the tree the first one abandoned."""
    (first, full, again), stats = _limit_full_limit(kernel_name, False)
    assert Counter(full.rows) == query1_bag
    assert full.total_calls == 311
    assert stats.warm_leases == 1
    for limited in (first, again):
        assert len(limited.rows) == 10
        assert not Counter(limited.rows) - query1_bag
        assert limited.total_calls < 311


@pytest.mark.parametrize(
    ("kernel_name", "cost_knobs"),
    [
        ("sim", {}),
        ("asyncio", {}),
        ("process", {}),
        ("sim", {"batch_size": 4}),
        ("asyncio", {"batch_size": 4}),
        ("sim", {"batch_size": 4, "prefetch": 2}),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(value) or "seed",
)
def test_full_query_on_the_tree_a_limit_abandoned(
    kernel_name, cost_knobs, query1_bag
) -> None:
    """All three queries lease one tree.  The full query starts while the
    children still run (and answer) calls the LIMIT walked away from —
    abandoned batches included — and must return the exact bag."""
    # Structural pool fingerprints only (cache off): Query1 with and
    # without its LIMIT lease the same tree.
    (first, full, again), stats = _limit_full_limit(
        kernel_name, True, cache=CacheConfig(enabled=False), **cost_knobs
    )
    assert stats.warm_leases == 2
    assert Counter(full.rows) == query1_bag
    # The abandoned calls finish inside the children during this query.
    assert full.total_calls >= 311
    for limited in (first, again):
        assert len(limited.rows) == 10
        assert not Counter(limited.rows) - query1_bag
