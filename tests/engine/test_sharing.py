"""Cross-query sharing: equivalence, fault isolation, one catalogue mid-query.

A sharing engine memoizes by default, so concurrent queries dedup through
the engine's one call memo; shared pools ride on top.  A call the memo
does not answer goes straight to the broker, as on a non-sharing engine.
"""

from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    CacheConfig,
    FaultInjection,
    QueryEngine,
)
from repro.fdb.functions import FunctionError
from repro.render import render_report
from repro.wsmed.options import QueryOptions

from tests.engine.test_engine import fresh_wsmed, trace_multiset, traced
from tests.helpers import wsdl_uri

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def sharing_engine(wsmed=None) -> QueryEngine:
    return QueryEngine(wsmed or fresh_wsmed(), share=True)


# -- configuration ------------------------------------------------------------------


def test_disabled_share_config_is_seed_identical() -> None:
    """``share=False`` must leave no trace of the tier."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=traced(PARALLEL))

    engine = QueryEngine(fresh_wsmed(), share=False)
    assert not engine.pool_registry.share_pools
    result = engine.sql(QUERY1_SQL, options=traced(PARALLEL))
    engine.close()

    assert result.rows == seed.rows
    assert result.total_calls == seed.total_calls
    assert result.cache_stats == seed.cache_stats
    assert trace_multiset(result.spans) == trace_multiset(seed.spans)
    assert not engine.stats().sharing


def test_lone_query_costs_what_a_caching_engine_pays() -> None:
    """Sharing adds nothing to a query that has nobody to share with: a
    lone Query1 on a sharing engine takes the model time and makes the
    broker calls of the same query on a non-sharing engine with its
    cache on."""
    lone = {}
    for share, options in (
        (True, PARALLEL),
        (False, PARALLEL.replace(cache=CacheConfig(enabled=True))),
    ):
        engine = QueryEngine(fresh_wsmed(), share=share)
        lone[share] = engine.sql(QUERY1_SQL, options=options)
        engine.close()

    assert lone[True].elapsed == lone[False].elapsed
    assert lone[True].total_calls == lone[False].total_calls == 311
    assert lone[True].cache_stats == lone[False].cache_stats


def test_cache_stats_are_none_exactly_when_the_query_does_not_memoize() -> None:
    engine = sharing_engine()
    uncached = engine.sql(
        QUERY1_SQL, options=PARALLEL.replace(cache=CacheConfig(enabled=False))
    )
    memoized = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()

    assert uncached.cache_stats is None
    assert uncached.total_calls == 311
    assert memoized.cache_stats is not None
    assert "call cache: off" in render_report(uncached, "cache")


# -- result equivalence ------------------------------------------------------------


def test_overlapping_queries_match_independent_runs() -> None:
    """N concurrent identical queries return the independent-run rows."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine()
    results = engine.sql_many([QUERY1_SQL] * 4, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    stats = engine.stats()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
        assert result.columns == seed.columns
    # The whole batch cost one query's worth of broker work: overlapping
    # trees are leased serially, and followers replay the engine's memo.
    assert broker_calls == seed.total_calls
    assert sum(result.cache_stats.calls_avoided for result in results) == 3 * 311
    assert stats.sharing
    assert stats.shared_pool_leases > 0


def test_single_flight_without_pool_sharing() -> None:
    """With pools off, queries overlap in time and dedup via waits."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine()
    engine.pool_registry.share_pools = False
    results = engine.sql_many([QUERY1_SQL] * 4, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    stats = engine.stats()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
    assert broker_calls == seed.total_calls
    assert sum(r.cache_stats.collapsed for r in results) > 0  # truly concurrent
    assert stats.shared_pool_leases == 0
    # Per-query attribution adds up without double counting: every round
    # trip is one query's miss, every other lookup another's hit or wait.
    assert sum(r.cache_stats.misses for r in results) == broker_calls
    assert sum(r.total_calls for r in results) == broker_calls
    assert all(r.cache_stats.lookups == 311 for r in results)


def test_asyncio_kernel_sharing_parity() -> None:
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = QueryEngine(
        fresh_wsmed(),
        kernel=AsyncioKernel(resident=True, time_scale=0.0005),
        share=True,
    )
    results = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
    # Real concurrency is racy, but sharing must still dedup most work.
    assert broker_calls < 3 * seed.total_calls


# -- fault isolation ------------------------------------------------------------


def test_failed_shared_call_does_not_poison_waiters() -> None:
    """A leader's fault must not become its waiters' result.

    Pools off so the four queries genuinely overlap: their identical
    calls collapse into single-flight groups whose leaders sometimes
    draw a broker-level :class:`ServiceFault`.  Waiters re-check instead
    of inheriting the fault, so with per-call retries every query
    completes with the full result.
    """
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine()
    engine.pool_registry.share_pools = False
    # Deterministic: the faults draw from the resident broker's seeded RNG.
    faulty = PARALLEL.replace(
        retries=3, faults=FaultInjection(service_fault_probability=0.05)
    )
    results = engine.sql_many([QUERY1_SQL] * 4, options=faulty)
    engine.close()

    assert sum(r.cache_stats.failures for r in results) > 0  # leaders did fail...
    assert sum(r.cache_stats.collapsed for r in results) > 0  # ...while others waited
    for result in results:  # ...yet everyone got the right answer
        assert sorted(result.rows) == sorted(seed.rows)


# -- one catalogue ------------------------------------------------------------------


def test_reimport_mid_query_is_refused_and_the_queries_complete() -> None:
    """A re-import while two overlapping queries share one tree raises the
    typed error and changes nothing: the first query makes all 311 calls
    and returns its 360 rows, the second is answered by the memo, and both
    trees are leasable afterwards."""
    wsmed = fresh_wsmed()
    engine = sharing_engine(wsmed)
    kernel = engine.kernel
    version = wsmed.functions.version

    async def reimport_mid_flight():
        await kernel.sleep(0.3)
        try:
            wsmed.import_wsdl(wsdl_uri(wsmed, "GetPlacesWithin"))
        except FunctionError as error:
            return error

    async def scenario():
        return await kernel.gather(
            reimport_mid_flight(),
            engine.sql_async(QUERY1_SQL, options=PARALLEL),
            engine.sql_async(QUERY1_SQL, options=PARALLEL),
        )

    refused, first, second = kernel.run(scenario())
    assert "build a new WSMED and engine" in str(refused)
    assert wsmed.functions.version == version
    assert (len(first.rows), first.total_calls) == (360, 311)
    assert second.total_calls == 0
    assert sorted(second.rows) == sorted(first.rows)

    after = engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    engine.close()
    assert sorted(after.rows) == sorted(first.rows)
    assert after.tree.processes_spawned == 0
    assert stats.plan_cache_misses == 1
