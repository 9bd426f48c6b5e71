"""The multi-process kernel: OS worker processes hosting child pools.

The contract under test is *transparency*: a query sharded across real
OS processes by :class:`~repro.runtime.multiprocess.ProcessKernel` must
produce the same bag of rows (and the same call counts) as the virtual
time kernel running the identical operator code — plus the properties
only a process fleet has: warm workers across engine queries, and
surviving a SIGKILLed worker mid-query.
"""

import multiprocessing
from collections import Counter
import os
import signal
import threading
import time

from dataclasses import replace

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    CacheConfig,
    FaultInjection,
    QueryEngine,
    WSMED,
    QueryOptions,
)
from repro.obs import TraceRecorder, validate_spans
from repro.parallel.placement import SPAN_BLOCK
from repro.runtime.multiprocess import ProcessKernel
from repro.util.errors import KernelError
from tests.helpers import forget
from tests.stats_oracle import fault_stats_from_trace, tree_stats_from_trace


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


@pytest.fixture(scope="module")
def sim_results(wsmed):
    return {
        "q1_parallel": wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4]),
        ),
        "q2_parallel": wsmed.sql(
            QUERY2_SQL,
            options=QueryOptions(mode="parallel", fanouts=[3, 2]),
        ),
    }


def test_parallel_query1_row_identical_to_sim(wsmed, sim_results) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4], kernel=kernel),
        )
    sim = sim_results["q1_parallel"]
    assert result.as_bag() == sim.as_bag()
    assert result.total_calls == sim.total_calls == 311
    assert result.tree.processes_spawned == 25


def test_local_services_ship_the_registry_to_the_workers(wsmed, sim_results) -> None:
    """``local_services=True`` pickles the whole ServiceRegistry — WSDL
    operations, GeoDatabase and its indexes — into each worker, after the
    parent (the ``sim_results`` run) has compiled and used the SOAP codecs
    of those very operations.  The workers' calls reach the query's call
    statistics with their children's telemetry, one-shot and on an
    engine: the same counts as the SimKernel's."""
    operation = next(iter(wsmed.registry.documents.values())).operation("GetAllStates")
    assert "codec" in vars(operation.output_element)
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    with ProcessKernel(workers=2, local_services=True) as kernel:
        result = wsmed.sql(QUERY1_SQL, options=options.replace(kernel=kernel))
    with ProcessKernel(workers=1, local_services=True) as kernel:
        engine = QueryEngine(wsmed, kernel=kernel)
        try:
            on_engine = engine.sql(QUERY1_SQL, options=options)
        finally:
            engine.close()
    sim = sim_results["q1_parallel"]
    calls = {name: (stat.calls, stat.rows) for name, stat in sim.call_stats.items()}
    for each in (result, on_engine):
        assert len(each) == 360
        assert each.as_bag() == sim.as_bag()
        assert each.total_calls == sim.total_calls == 311
        assert {name: (stat.calls, stat.rows) for name, stat in each.call_stats.items()} == calls


def test_parallel_query2_row_identical_to_sim(wsmed, sim_results) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(
            QUERY2_SQL,
            options=QueryOptions(mode="parallel", fanouts=[3, 2], kernel=kernel),
        )
    sim = sim_results["q2_parallel"]
    assert result.as_bag() == sim.as_bag()
    assert result.total_calls == sim.total_calls


def test_adaptive_mode_on_process_kernel(wsmed) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="adaptive", kernel=kernel),
        )
    assert len(result) == 360
    assert result.tree.add_stages >= 1


def test_call_cache_counters_cross_the_pipe(wsmed) -> None:
    """Worker children hold no memo: their calls cross the pipe to the
    coordinator's, which counts every lookup of the query, as the
    SimKernel's memo does."""
    options = QueryOptions(mode="parallel", fanouts=[3, 2], cache=CacheConfig(enabled=True))
    sim = wsmed.sql(QUERY2_SQL, options=options)
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(QUERY2_SQL, options=options.replace(kernel=kernel))
    assert result.cache_stats is not None
    assert result.cache_stats.misses == result.total_calls == sim.total_calls
    assert result.cache_stats.lookups == sim.cache_stats.lookups


def _assert_counters_match_oracle(result) -> None:
    assert result.tree == tree_stats_from_trace(result.spans)
    assert result.fault_stats == fault_stats_from_trace(result.spans)


#: The traffic the worker pipe frames besides memo answers: parameter and
#: result batches, failed calls redelivered after crashes, and the per-call
#: tuples of a plain traced query.
WIRE_PATHS = {
    "batched": {"batch_size": 4},
    "retry-faults": {"on_error": "retry", "faults": FaultInjection(0.1, 0.02)},
    "traced": {},
}


@pytest.mark.parametrize("path", WIRE_PATHS)
def test_every_wire_path_returns_the_sim_rows_and_counts(wsmed, path) -> None:
    fields = dict(WIRE_PATHS[path], mode="parallel", fanouts=[5, 4])
    if "batch_size" in fields:
        fields["process_costs"] = replace(wsmed.process_costs, batch_size=fields.pop("batch_size"))
    options = QueryOptions(**fields)
    sim = wsmed.sql(QUERY1_SQL, options=options.replace(obs=TraceRecorder()))
    with ProcessKernel(workers=1) as kernel:
        result = wsmed.sql(QUERY1_SQL, options=options.replace(kernel=kernel, obs=TraceRecorder()))
    assert result.as_bag() == sim.as_bag()
    _assert_counters_match_oracle(result)
    for run in (sim, result):
        outcomes = Counter(span.attrs["outcome"] for span in run.spans.by_category("ws"))
        assert outcomes == {"miss": run.total_calls}
    if path == "retry-faults":  # a crash mid-call repeats the call elsewhere
        assert result.fault_stats.failed_calls > 0 and result.total_calls >= 311
    else:
        assert result.total_calls == sim.total_calls == 311


def test_memo_answers_cross_the_pipe_as_rows(wsmed) -> None:
    """Two concurrent memoizing queries on one engine: the second's calls
    collapse onto the first's or hit the memo, and a worker child gets the
    coordinator's memoized rows — the same rows the SimKernel's get."""
    options = QueryOptions(mode="parallel", fanouts=[5, 4], cache=CacheConfig(enabled=True))

    def both(kernel) -> list:
        engine = QueryEngine(wsmed, kernel=kernel)
        try:
            return engine.sql_many(
                [(QUERY1_SQL, options.replace(obs=TraceRecorder())) for _ in range(2)]
            )
        finally:
            engine.close()

    sim = both(None)
    with ProcessKernel(workers=1) as kernel:
        results = both(kernel)
    outcomes = Counter()
    for result, reference in zip(results, sim):
        assert result.as_bag() == reference.as_bag()
        _assert_counters_match_oracle(result)
        outcomes.update(span.attrs["outcome"] for span in result.spans.by_category("ws"))
    assert outcomes["miss"] == sum(result.total_calls for result in results) == 311
    assert outcomes["hit"] + outcomes["collapsed"] == 311
    assert outcomes["collapsed"] > 0


def test_local_services_workers_memoize_in_their_own_memo(wsmed) -> None:
    """A ``local_services`` worker executes calls itself, so it holds the
    memo of its address space: a warm cached Query1's children are
    answered there, the coordinator's GetAllStates by the engine's memo,
    and every counter reaches the query's CacheStats."""
    options = QueryOptions(mode="parallel", fanouts=[5, 4], cache=CacheConfig(enabled=True))
    with ProcessKernel(workers=1, local_services=True) as kernel:
        engine = QueryEngine(wsmed, kernel=kernel)
        try:
            cold = engine.sql(QUERY1_SQL, options=options)
            warm = engine.sql(QUERY1_SQL, options=options)
        finally:
            engine.close()
    assert cold.cache_stats.misses == 311
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (311, 0)
    assert warm.as_bag() == cold.as_bag()


def test_local_services_workers_inject_each_querys_service_faults(wsmed) -> None:
    """Services ship to ``local_services`` workers once per registry, but
    the faults their brokers inject are each query's own: on one reused
    kernel a faulty query's worker-side calls fault (and are retried there,
    in child processes), and the clean queries around it see none."""
    options = QueryOptions(mode="parallel", fanouts=[2, 2])
    faulty = options.replace(retries=60, faults=FaultInjection(service_fault_probability=0.8))
    with ProcessKernel(workers=1, local_services=True) as kernel:
        results = [
            wsmed.sql(QUERY1_SQL, options=each.replace(kernel=kernel, obs=TraceRecorder()))
            for each in (options, faulty, options)
        ]
    retried = [{event.process for event in r.spans.find("retry")} - {"q0"} for r in results]
    assert retried[0] == retried[2] == set()
    assert retried[1]  # worker children retried their own faulted calls
    assert results[1].as_bag() == results[0].as_bag() == results[2].as_bag()


def test_engine_keeps_worker_processes_warm(wsmed) -> None:
    with ProcessKernel(workers=2) as kernel:
        engine = QueryEngine(wsmed, kernel=kernel)
        try:
            first = engine.sql(
                QUERY1_SQL,
                options=QueryOptions(mode="parallel", fanouts=[5, 4]),
            )
            pids_after_first = kernel.worker_pool.pids()
            second = engine.sql(
                QUERY1_SQL,
                options=QueryOptions(mode="parallel", fanouts=[5, 4]),
            )
            stats = engine.stats()
            pids_after_second = kernel.worker_pool.pids()
        finally:
            engine.close()
    assert first.as_bag() == second.as_bag()
    # Same OS processes served both queries: a warm lease re-homed the
    # child pools (RebindChild), nothing respawned.
    assert pids_after_second == pids_after_first
    assert stats.warm_leases >= 1
    assert second.tree.processes_spawned == 0


def test_worker_spans_reach_the_traced_query(wsmed) -> None:
    """The spans worker children record — their per-call spans and the
    web-service spans of every call, nested pools included — ride their
    call-ending messages into ``result.spans``: as many as the SimKernel
    records, every one finished and linked.  (Across the pipe the two
    clocks differ by scheduling jitter, so nesting in time is not checked.)"""
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    sim = wsmed.sql(QUERY1_SQL, options=options.replace(obs=TraceRecorder()))
    with ProcessKernel(workers=1) as kernel:
        result = wsmed.sql(
            QUERY1_SQL, options=options.replace(obs=TraceRecorder(), kernel=kernel)
        )
    for category in ("ws", "call", "invoke", "queue", "server"):
        assert len(result.spans.by_category(category)) == len(sim.spans.by_category(category))
    assert min(span.id for span in result.spans.by_category("call")) >= SPAN_BLOCK
    assert {span.process for span in result.spans.by_category("ws")} - {"q0"}
    broken = [
        problem
        for problem in validate_spans(result.spans)
        if "closes after" not in problem and "starts before" not in problem
    ]
    assert broken == []


def test_memo_answers_are_attributed_in_worker_children() -> None:
    """On a sharing engine, a worker child's call the coordinator's memo
    answered is a ``ws`` span with outcome ``hit``, not ``miss``.  Between
    the queries the memo forgets the outer operations' answers and the
    plan-function bags over them, so the children run again, against a
    call memo that still holds every GetPlaceList answer."""
    system = WSMED(profile="fast")
    system.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    with ProcessKernel(workers=1) as kernel:
        engine = QueryEngine(system, kernel=kernel, share=True)
        try:
            cold = engine.sql(QUERY1_SQL, options=options)
            forget(engine.memo, {"GetAllStates", "GetPlacesWithin"}, {"PF1"})
            warm = engine.sql(QUERY1_SQL, options=options.replace(obs=TraceRecorder()))
        finally:
            engine.close()
    assert cold.total_calls == 311
    assert warm.total_calls == 51  # GetAllStates and GetPlacesWithin again
    outcomes = Counter(span.attrs["outcome"] for span in warm.spans.by_category("ws"))
    assert outcomes["miss"] == 51
    assert outcomes["hit"] == warm.cache_stats.hits == 260


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched class reaches the workers by fork",
)
def test_child_that_fails_to_rebind_is_respawned(monkeypatch) -> None:
    """A worker that cannot re-home a warm child into the new query ends
    it instead of letting it serve under the previous query's policy; the
    pool's death path respawns it and the query returns the exact rows."""
    from repro.runtime.workers import _ChildSlot

    rebind = _ChildSlot.rebind

    def rebind_failing_once(slot, spec) -> None:
        if slot.child_id == 1:
            raise RuntimeError("rebind failed")
        rebind(slot, spec)

    monkeypatch.setattr(_ChildSlot, "rebind", rebind_failing_once)  # before the fork
    system = WSMED(profile="fast")
    system.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4], on_error="retry")
    with ProcessKernel(workers=1) as kernel:
        engine = QueryEngine(system, kernel=kernel)
        try:
            cold = engine.sql(QUERY1_SQL, options=options)
            warm = engine.sql(QUERY1_SQL, options=options)
        finally:
            engine.close()
    assert warm.as_bag() == cold.as_bag()
    assert warm.fault_stats.respawns == 1
    assert warm.tree.processes_spawned == 5  # the replacement and its 4 children


def test_killed_worker_is_respawned_and_query_completes(wsmed) -> None:
    """SIGKILL one worker mid-query: the heartbeat/EOF path respawns it,
    the pool's on_error=retry policy replaces the lost children, and the
    query still returns the right rows."""
    sim = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[5, 4],
            retries=2,
            on_error="retry",
        ),
    )
    # Paper profile at time_scale=0.1 -> roughly 6 wall seconds; the kill
    # at 1.5s lands mid-execution with plenty of work left.
    paper = WSMED(profile="paper")
    paper.import_all()
    with ProcessKernel(workers=2, time_scale=0.1) as kernel:

        def kill_one_worker() -> None:
            pids = kernel.worker_pool.pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)

        timer = threading.Timer(1.5, kill_one_worker)
        timer.start()
        try:
            result = paper.sql(
                QUERY1_SQL,
                options=QueryOptions(
                    mode="parallel",
                    fanouts=[5, 4],
                    retries=2,
                    on_error="retry",
                    kernel=kernel,
                ),
            )
        finally:
            timer.cancel()
        respawned = kernel.worker_pool.respawned_workers
    assert result.as_bag() == sim.as_bag()
    assert respawned >= 1


def test_process_kernel_shutdown_is_idempotent(wsmed) -> None:
    kernel = ProcessKernel(workers=2)
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], kernel=kernel),
    )
    assert len(result) == 360
    kernel.shutdown()
    assert kernel.worker_pool.pids() == []
    kernel.shutdown()  # second call must be a no-op


def test_a_closed_engines_kernel_raises_a_typed_error(wsmed) -> None:
    """``QueryEngine.close()`` shuts down the kernel it runs on, one passed
    in too (no worker may outlive it).  A second engine on that kernel
    fails its first query with a ``KernelError`` saying so."""
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    kernel = ProcessKernel(workers=1)
    first = QueryEngine(wsmed, kernel=kernel)
    try:
        assert len(first.sql(QUERY1_SQL, options=options)) == 360
    finally:
        first.close()
    assert kernel.worker_pool.pids() == []
    second = QueryEngine(wsmed, kernel=kernel)
    try:
        with pytest.raises(KernelError, match="ProcessKernel is shut down"):
            second.sql(QUERY1_SQL, options=options)
    finally:
        second.close()


def test_default_kernels_untouched_by_placement_hook(wsmed) -> None:
    """The placement integration is opt-in: kernels without
    attach_placement run the seed in-process path, bit for bit."""
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4]),
    )
    assert result.elapsed == pytest.approx(
        wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4]),
        ).elapsed
    )
    assert not hasattr(result, "placement")



def test_function_registry_ships_once_until_a_definition_changes(monkeypatch) -> None:
    """``Placement.attach`` re-serializes the registry only when its
    mutation counter moved; a replaced definition ships again, and a
    respawned worker gets the latest registration replayed."""
    import repro.runtime.workers as workers
    from repro.fdb.functions import helping_function
    from repro.fdb.types import CHARSTRING, TupleType
    from repro.runtime.wire import RegisterFunctions

    serialized = []
    serialize = workers.serialize_functions
    monkeypatch.setattr(
        workers, "serialize_functions", lambda registry: serialized.append(1) or serialize(registry)
    )
    system = WSMED(profile="fast")
    system.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4], on_error="retry")
    with ProcessKernel(workers=1) as kernel:
        engine = QueryEngine(system, kernel=kernel)
        try:
            reference = engine.sql(QUERY1_SQL, options=options).as_bag()
            for _ in range(3):
                engine.sql(QUERY1_SQL, options=options)
            assert len(serialized) == 1
            system.register_helping_function(
                helping_function("shout", [("s", CHARSTRING)], TupleType((("t", CHARSTRING),)), str.upper)
            )
            engine.sql(QUERY1_SQL, options=options)
            assert len(serialized) == 2
            registered = [
                e for e in kernel.worker_pool._registrations if isinstance(e, RegisterFunctions)
            ]
            assert len(registered) == 1 and b"shout" in registered[0].payload
            os.kill(kernel.worker_pool.pids()[0], signal.SIGKILL)
            time.sleep(0.5)  # the next run's loop sees EOF and respawns
            after = engine.sql(QUERY1_SQL, options=options)
            respawned = kernel.worker_pool.respawned_workers
        finally:
            engine.close()
    assert respawned >= 1
    assert after.as_bag() == reference
    assert len(serialized) == 2  # the respawn replayed the stored envelope
