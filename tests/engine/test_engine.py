"""Resident-engine behaviour: cold equivalence, warm reuse, one catalogue."""

import gc
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    CacheConfig,
    FaultInjection,
    ProcessCosts,
    QueryEngine,
    SimKernel,
    TraceRecorder,
    WSMED,
    QueryOptions,
)
from repro.fdb.functions import FunctionError
from repro.render import render_plan
from repro.util.errors import PlanError, ReproError

from tests.helpers import wsdl_uri

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def traced(options: QueryOptions = PARALLEL) -> QueryOptions:
    """``options`` with a fresh recorder, so the result carries its events."""
    return options.replace(obs=TraceRecorder())


def fresh_wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def fresh_engine(**kwargs) -> QueryEngine:
    return QueryEngine(fresh_wsmed(), **kwargs)


def _norm(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _norm(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_norm(v) for v in value)
    return value


def trace_multiset(spans) -> Counter:
    """Order-insensitive view of a trace: the multiset of (name, category,
    process, start, attrs) over its instants and web-service spans."""
    return Counter(
        (span.name, span.category, span.process, span.start, _norm(span.attrs))
        for span in spans
        if span.instant or span.category == "ws"
    )


# -- construction ------------------------------------------------------------------


def test_rejects_non_resident_kernel() -> None:
    with pytest.raises(ReproError, match="resident"):
        QueryEngine(fresh_wsmed(), kernel=SimKernel())


def test_rejects_bad_concurrency() -> None:
    with pytest.raises(ReproError, match="max_concurrency"):
        QueryEngine(fresh_wsmed(), max_concurrency=0)


def test_closed_engine_refuses_queries() -> None:
    engine = fresh_engine()
    engine.close()
    with pytest.raises(ReproError, match="closed"):
        engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()  # idempotent


def test_unclosed_engine_is_garbage_collected_quietly(monkeypatch) -> None:
    """Dropping an engine with warm nested pools closes its child
    coroutines from the garbage collector; none may try to await."""
    engine = fresh_engine()
    engine.sql(QUERY1_SQL, options=PARALLEL)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    del engine
    gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


@pytest.mark.parametrize("kernel", ["sim", "asyncio"])
def test_a_warm_tree_does_not_keep_the_query_that_cold_started_it(kernel) -> None:
    """The children of a warm tree hold their own pool acquirer, not the
    coordinator's: once three warm queries have run on the tree, the
    traced cold query's recorder is garbage."""
    if kernel == "asyncio":
        engine = QueryEngine(
            fresh_wsmed(), kernel=AsyncioKernel(resident=True, time_scale=0.0005)
        )
    else:
        engine = fresh_engine()
    recorder = TraceRecorder()
    engine.sql(QUERY1_SQL, options=PARALLEL.replace(obs=recorder))
    cold = weakref.ref(recorder)
    del recorder
    try:
        for _ in range(3):
            engine.sql(QUERY1_SQL, options=PARALLEL)
        gc.collect()
        assert engine.stats().warm_leases == 3
        assert cold() is None
    finally:
        engine.close()


def test_close_still_waits_for_every_child() -> None:
    engine = fresh_engine()
    engine.sql(QUERY1_SQL, options=PARALLEL)
    spans = engine.sql(QUERY1_SQL, options=traced()).spans
    engine.close()
    # Every process of the warm tree (5 + 20) exited through its pool's close.
    assert len(spans.find("process_exit")) == 25


# -- cold equivalence ------------------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [
        QueryOptions(mode="central"),
        PARALLEL,
        QueryOptions(mode="adaptive"),
        PARALLEL.replace(cache=CacheConfig(enabled=True)),
    ],
    ids=["central", "parallel", "adaptive", "parallel-cached"],
)
def test_cold_query_is_bit_for_bit_identical_to_wsmed(options) -> None:
    """One-shot ``WSMED.sql`` and the first query of a fresh engine are
    two callers of the same ``WSMED.run_plan``: default (heuristic
    planner, static admission) engine state must not show in any
    statistic.  (This is the parity the CI workflow used to re-check in
    two inline scripts.)"""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=traced(options))

    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=traced(options))
    engine.close()  # parks process_exit instants in the query's trace

    assert cold.rows == seed.rows
    assert cold.columns == seed.columns
    assert render_plan(cold.plan) == render_plan(seed.plan)
    assert cold.total_calls == seed.total_calls
    assert cold.call_stats == seed.call_stats
    assert cold.message_stats == seed.message_stats
    assert cold.tree == seed.tree
    assert cold.cache_stats == seed.cache_stats
    assert trace_multiset(cold.spans) == trace_multiset(seed.spans)


# -- warm reuse ------------------------------------------------------------------


def test_warm_query_spawns_nothing_and_reuses_the_tree() -> None:
    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=traced())
    warm = engine.sql(QUERY1_SQL, options=traced())

    assert len(cold.spans.find("spawn")) == 25  # 5 + 5*4 processes
    assert len(warm.spans.find("spawn")) == 0
    assert len(warm.spans.find("install")) == 0
    assert sorted(warm.rows) == sorted(cold.rows)
    assert warm.total_calls == cold.total_calls
    assert warm.elapsed < cold.elapsed

    stats = engine.stats()
    assert stats.plan_cache_hits == 1
    assert stats.warm_leases == 1
    assert stats.cold_starts == 1
    assert stats.idle_pools == 1
    assert stats.resident_processes == 25
    engine.close()
    assert engine.stats().idle_pools == 0
    assert engine.stats().resident_processes == 0


def test_warm_query_answers_from_the_engine_memo() -> None:
    engine = fresh_engine()
    config = CacheConfig(enabled=True)
    cold = engine.sql(QUERY1_SQL, options=PARALLEL.replace(cache=config))
    warm = engine.sql(QUERY1_SQL, options=PARALLEL.replace(cache=config))
    engine.close()

    assert cold.cache_stats.hits == 0
    # Every call of the warm query hits the engine's memo, and per-query
    # counters start at zero (no bleed from the cold query).
    assert warm.cache_stats.hits == cold.cache_stats.misses == 311
    assert warm.cache_stats.misses == 0
    assert warm.total_calls == 0


def test_warm_message_counters_are_per_query() -> None:
    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()
    # Same statement, same tree: the warm query moves the same tuples.
    assert warm.message_stats == cold.message_stats


# -- one catalogue ------------------------------------------------------------------


def test_wsdl_reimport_under_a_live_engine_keeps_plans_and_pools_warm() -> None:
    """A refused re-import makes nothing stale: the next query is a
    plan-cache hit on a warm tree, and no process is spawned again."""
    wsmed = fresh_wsmed()
    engine = QueryEngine(wsmed)
    first = engine.sql(QUERY1_SQL, options=PARALLEL)
    with pytest.raises(FunctionError, match="build a new WSMED and engine"):
        wsmed.import_wsdl(wsdl_uri(wsmed, "GetPlacesWithin"))
    assert engine.stats().plan_cache_entries == 1
    again = engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    engine.close()

    assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1, 1)
    assert (stats.warm_leases, stats.cold_starts) == (1, 1)
    assert again.tree.processes_spawned == 0
    assert again.total_calls == first.total_calls == 311
    assert sorted(again.rows) == sorted(first.rows)


@pytest.mark.parametrize("share", [False, True], ids=["private", "share"])
def test_wsdl_reimport_under_a_live_engine_is_refused(share) -> None:
    """The engine froze its catalogue: a re-import raises the typed error,
    and the cached plan, the warm tree and the memoized results all still
    serve the next query."""
    wsmed = fresh_wsmed()
    engine = QueryEngine(wsmed, share=share)
    cached = PARALLEL.replace(cache=CacheConfig(enabled=True))
    first = engine.sql(QUERY1_SQL, options=cached)
    with pytest.raises(FunctionError, match="build a new WSMED and engine"):
        wsmed.import_wsdl(wsdl_uri(wsmed, "GetAllStates"))
    again = engine.sql(QUERY1_SQL, options=cached)
    stats = engine.stats()
    engine.close()

    assert first.total_calls == 311
    assert again.total_calls == 0 and again.cache_stats.hits == 311
    assert (stats.plan_cache_hits, stats.warm_leases, stats.cold_starts) == (1, 1, 1)
    assert sorted(again.rows) == sorted(first.rows)


def test_queries_with_distinct_ttls_lease_one_warm_tree() -> None:
    """The cache setting is not part of a tree's identity: a client that
    picks a new ``ttl`` per query reuses the warm tree every time."""
    engine = fresh_engine()
    for ttl in range(1, 41):
        cache = CacheConfig(enabled=True, ttl=ttl)
        engine.sql(QUERY1_SQL, options=PARALLEL.replace(cache=cache))
    stats = engine.stats()
    engine.close()
    assert stats.warm_leases >= 39
    assert stats.cold_starts == 1


@pytest.mark.parametrize("kernel", ["sim", "process"])
def test_a_warm_tree_follows_each_querys_failure_policy(kernel) -> None:
    """The failure policy and injected faults ride the query, not the
    tree's identity: a tree built under ``on_error="fail"`` is leased warm
    to a query that retries injected failures, and follows its policy."""
    from repro.runtime.multiprocess import ProcessKernel

    resident = ProcessKernel(workers=1) if kernel == "process" else None
    engine = fresh_engine(kernel=resident)
    # On ProcessKernel the wall-clock schedule decides which child's seeded
    # injector a redelivered row meets, so the default budget of 2 can run
    # out by chance (and the query then rightly fails).  Both queries get
    # one cost model, so they share one pool fingerprint and the second
    # still leases the first one's tree, with a budget no schedule
    # plausibly exhausts: one row failing 21 times at 0.1 is 1e-21.
    options = PARALLEL.replace(
        process_costs=replace(engine.wsmed.process_costs, max_redeliveries=20)
    )
    try:
        strict = engine.sql(QUERY1_SQL, options=options.replace(on_error="fail"))
        cold_starts = engine.stats().cold_starts
        tolerant = engine.sql(
            QUERY1_SQL,
            options=options.replace(
                on_error="retry",
                faults=FaultInjection(call_failure_probability=0.1),
            ),
        )
        stats = engine.stats()
    finally:
        engine.close()
        if resident is not None:
            resident.shutdown()
    assert tolerant.as_bag() == strict.as_bag()
    assert tolerant.fault_stats.redeliveries > 0
    assert stats.cold_starts == cold_starts
    assert tolerant.tree.processes_spawned == 0


def test_a_query_cannot_set_the_bound_of_the_engine_memo() -> None:
    engine = fresh_engine()
    try:
        with pytest.raises(PlanError, match="max_entries"):
            cache = CacheConfig(enabled=True, max_entries=7)
            engine.sql(QUERY1_SQL, options=QueryOptions(cache=cache))
        # The engine's own bound, or a cache turned off, is fine.
        result = engine.sql(
            QUERY1_SQL, options=QueryOptions(cache=CacheConfig(enabled=False, max_entries=7))
        )
    finally:
        engine.close()
    assert result.total_calls == 311 and result.cache_stats is None


def test_helping_function_replace_is_refused_and_a_new_name_registers() -> None:
    from repro.fdb.functions import helping_function
    from repro.fdb.types import CHARSTRING, TupleType

    def zipcodes(name: str):
        return helping_function(
            name,
            [("zipstr", CHARSTRING)],
            TupleType((("zipcode", CHARSTRING),)),
            lambda zipstr: [(code,) for code in zipstr.split(",") if code],
        )

    wsmed = fresh_wsmed()
    engine = QueryEngine(wsmed)
    engine.sql(QUERY1_SQL, options=PARALLEL)
    with pytest.raises(FunctionError, match="cannot replace 'getzipcode'"):
        wsmed.register_helping_function(zipcodes("getzipcode"))
    # A new name makes nothing stale: the cached plan and warm tree stay.
    wsmed.register_helping_function(zipcodes("zipcodes"))
    assert "zipcodes" in wsmed.functions
    engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    assert stats.plan_cache_hits == 1
    assert stats.warm_leases == 1
    engine.close()


def test_max_idle_pools_zero_disables_reuse(monkeypatch) -> None:
    monkeypatch.setattr("repro.engine.engine.MAX_IDLE_POOLS", 0)
    engine = fresh_engine()
    engine.sql(QUERY1_SQL, options=PARALLEL)
    warm_attempt = engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    assert stats.warm_leases == 0
    assert stats.pools_trimmed == 2
    assert warm_attempt.tree.processes_spawned == 25
    engine.close()


# -- concurrent admission ------------------------------------------------------------


def test_concurrent_queries_have_partitioned_results() -> None:
    engine = fresh_engine(max_concurrency=4)
    config = CacheConfig(enabled=True)
    first, second = engine.sql_many(
        [QUERY1_SQL, QUERY1_SQL],
        options=PARALLEL.replace(cache=config),
    )

    assert first.tree is not second.tree
    assert sorted(first.rows) == sorted(second.rows)
    # Call statistics are per query and sum to the broker's global count:
    # the engine's one memo makes each distinct call once for both.
    assert engine.broker.total_calls() == first.total_calls + second.total_calls == 311
    # Cache counters are per query too: each query looked up every call,
    # and only the one that made a call counts its miss.
    assert first.cache_stats.lookups == second.cache_stats.lookups == 311
    assert first.cache_stats.misses + second.cache_stats.misses == 311
    # Each query counts exactly one tree's worth of activity.
    assert first.tree.processes_spawned == second.tree.processes_spawned == 25
    stats = engine.stats()
    assert stats.peak_concurrency == 2
    assert stats.cold_starts == 2 and stats.warm_leases == 0
    engine.close()


def test_admission_respects_max_concurrency() -> None:
    engine = fresh_engine(max_concurrency=1)
    results = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert engine.stats().peak_concurrency == 1
    assert all(sorted(r.rows) == sorted(results[0].rows) for r in results)
    # Serialized queries reuse the single warm tree back to back.
    assert engine.stats().warm_leases == 2
    engine.close()


def affinity_engine(**kwargs) -> QueryEngine:
    """The ``engine_warm`` configuration: call cache on, and strict
    affinity routing (``prefetch=16`` never saturates the target)."""
    wsmed = WSMED(
        profile="fast",
        process_costs=ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01),
        cache=CacheConfig(enabled=True),
    )
    wsmed.import_all()
    return QueryEngine(wsmed, **kwargs)


def test_fully_warm_query_is_five_times_faster_with_the_cold_rows() -> None:
    engine = affinity_engine()
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.sql(QUERY1_SQL, options=PARALLEL)  # warm: the memo answers every call
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()

    assert sorted(warm.rows) == sorted(cold.rows)
    assert (cold.total_calls, warm.total_calls) == (311, 0)
    assert cold.elapsed >= 5 * warm.elapsed


def test_sixteen_warm_clients_reach_three_times_one_clients_throughput() -> None:
    """All-hit warm queries never contend on the capacity-limited services."""

    def queries_per_model_second(clients: int) -> float:
        engine = affinity_engine(max_concurrency=16)
        batch = [QUERY1_SQL] * clients
        for _ in range(2):  # one resident tree per client, memo filled
            engine.sql_many(batch, options=PARALLEL)
        started = engine.kernel.now()
        results = engine.sql_many(batch, options=PARALLEL)
        makespan = engine.kernel.now() - started
        engine.close()
        assert all(len(result.rows) == 360 for result in results)
        return clients / makespan

    assert queries_per_model_second(16) >= 3 * queries_per_model_second(1)


def test_sql_many_accepts_per_query_overrides() -> None:
    engine = fresh_engine(max_concurrency=2)
    parallel, central = engine.sql_many(
        [QUERY1_SQL, (QUERY1_SQL, dict(mode="central", fanouts=None))],
        options=PARALLEL,
    )
    assert parallel.mode == "parallel"
    assert central.mode == "central"
    assert sorted(parallel.rows) == sorted(central.rows)
    engine.close()


# -- asyncio parity ------------------------------------------------------------------


def test_asyncio_resident_kernel_parity() -> None:
    sim = fresh_engine()
    expected = sim.sql(QUERY1_SQL, options=PARALLEL)
    sim.close()

    engine = QueryEngine(
        fresh_wsmed(), kernel=AsyncioKernel(resident=True, time_scale=0.0005)
    )
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()

    assert sorted(cold.rows) == sorted(expected.rows)
    assert sorted(warm.rows) == sorted(expected.rows)
    assert warm.tree.processes_spawned == 0
    assert engine.stats().warm_leases == 1
