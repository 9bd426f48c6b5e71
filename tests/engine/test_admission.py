"""Capacity-aware admission: control law, fairness, shedding, staleness.

Everything here runs under ``SimKernel``, so admission order, control
decisions and deadline rejections are bit-for-bit deterministic.
"""

import pytest

from repro import (
    QUERY1_SQL,
    AdmissionConfig,
    AdmissionRejected,
    AsyncioKernel,
    QueryEngine,
    SimKernel,
    WSMED,
    QueryOptions,
)
from repro.engine.admission import AdmissionController, CapacityController
from repro.obs.metrics import MetricsRegistry
from repro.parallel.faults import FaultInjection
from repro.util.errors import ReproError

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def fresh_wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def fresh_engine(**kwargs) -> QueryEngine:
    return QueryEngine(fresh_wsmed(), **kwargs)


# -- configuration ----------------------------------------------------------------


def test_config_rejects_bad_threshold() -> None:
    with pytest.raises(ReproError, match="threshold"):
        AdmissionConfig(threshold=1.0)


def test_config_rejects_bad_concurrency_bounds() -> None:
    with pytest.raises(ReproError, match="min_concurrency"):
        AdmissionConfig(min_concurrency=0)
    with pytest.raises(ReproError, match="below"):
        AdmissionConfig(min_concurrency=4, max_concurrency=2)


def test_config_rejects_bad_tenant_weight() -> None:
    with pytest.raises(ReproError, match="weight"):
        AdmissionConfig(tenant_weights={"a": 0.0})


def test_engine_rejects_unknown_admission_policy() -> None:
    with pytest.raises(ReproError, match="admission"):
        fresh_engine(admission="bogus")


# -- the control law ----------------------------------------------------------------


def _controller(**overrides) -> CapacityController:
    config = AdmissionConfig(
        baseline_samples=2, probe_queries=2, reprobe_windows=2, **overrides
    )
    return CapacityController(config, ceiling=8, metrics=MetricsRegistry())


def test_controller_ramps_while_inflation_is_low() -> None:
    controller = _controller()
    for _ in range(20):
        controller.observe(controller.limit, 1.0)  # flat latency at any level
        controller.control_step()
    assert controller.limit == 8
    assert controller.raises == 7
    assert controller.backoffs == 0


def test_controller_backs_off_past_the_threshold() -> None:
    controller = _controller()
    # Level 1 baseline: 1.0s.  Level 2 doubles it (2.0x > 1.5x).
    for _ in range(4):
        controller.observe(1, 1.0)
        controller.control_step()
    assert controller.limit == 2
    for _ in range(2):
        controller.observe(2, 2.0)
        controller.control_step()
    assert controller.limit == 1
    assert controller.backoffs == 1
    assert controller.last_inflation == pytest.approx(2.0)


def test_controller_hysteresis_delays_reprobe_of_tripped_level() -> None:
    controller = _controller()
    for _ in range(4):
        controller.observe(1, 1.0)
        controller.control_step()
    for _ in range(2):
        controller.observe(2, 2.0)
        controller.control_step()
    assert controller.limit == 1  # level 2 tripped, backed off
    # One clean window at level 1 is not enough to re-probe level 2...
    for _ in range(2):
        controller.observe(1, 1.0)
        controller.control_step()
    assert controller.limit == 1
    # ...but reprobe_windows (2) consecutive clean windows forgive it.
    for _ in range(2):
        controller.observe(1, 1.0)
        controller.control_step()
    assert controller.limit == 2
    assert controller.raises == 2


def test_sweep_table_reports_probed_levels() -> None:
    controller = _controller()
    for _ in range(4):
        controller.observe(1, 1.0)
        controller.control_step()
    for _ in range(2):
        controller.observe(2, 1.8)
        controller.control_step()
    table = controller.sweep_table()
    assert [row["level"] for row in table] == [1, 2]
    assert table[0]["inflation"] == pytest.approx(1.0)
    assert table[1]["inflation"] == pytest.approx(1.8)


# -- weighted fair queueing ----------------------------------------------------------


def _pinned_controller(kernel, **overrides) -> AdmissionController:
    """A controller whose limit never moves (probe window is huge)."""
    config = AdmissionConfig(
        min_concurrency=1,
        max_concurrency=1,
        probe_queries=10_000,
        shed=False,
        **overrides,
    )
    return AdmissionController(kernel, config, ceiling=1)


def test_weighted_fair_interleave_is_exact() -> None:
    kernel = SimKernel(resident=True)
    controller = _pinned_controller(
        kernel, tenant_weights={"A": 2.0, "B": 1.0}
    )

    async def worker(tenant: str) -> None:
        ticket = await controller.admit(tenant)
        await kernel.sleep(1.0)
        controller.release(ticket, 1.0)

    async def scenario() -> list[str]:
        blocker = await controller.admit("warm")  # occupy the single slot
        handles = [
            kernel.spawn(worker(tenant), name=f"{tenant}{i}")
            for i, tenant in enumerate(["A", "A", "A", "A", "B", "B"])
        ]
        await kernel.sleep(0)  # let every worker reach the queue
        controller.release(blocker, 1.0)
        for handle in handles:
            await handle.join()
        return list(controller.admission_log)

    order = kernel.run(scenario())
    # Virtual-time tags at 2:1 weights: A gets two grants per B grant.
    assert order == ["warm", "A", "A", "B", "A", "A", "B"]
    kernel.shutdown()


def test_late_light_tenant_is_not_starved_by_heavy_backlog() -> None:
    kernel = SimKernel(resident=True)
    controller = _pinned_controller(kernel)

    async def worker(tenant: str) -> None:
        ticket = await controller.admit(tenant)
        await kernel.sleep(1.0)
        controller.release(ticket, 1.0)

    async def scenario() -> list[str]:
        blocker = await controller.admit("warm")
        heavies = [
            kernel.spawn(worker("heavy"), name=f"h{i}") for i in range(8)
        ]
        await kernel.sleep(0)
        controller.release(blocker, 1.0)
        # Three heavy grants happen, then the light tenant shows up.
        await kernel.sleep(3.5)
        light = kernel.spawn(worker("light"), name="light")
        for handle in heavies:
            await handle.join()
        await light.join()
        return list(controller.admission_log)

    order = kernel.run(scenario())
    # The late arrival's virtual tag reflects *current* virtual time, not
    # the heavy tenant's whole backlog: it runs well before the queue
    # drains instead of going last.
    position = order.index("light")
    assert position < len(order) - 2, order
    kernel.shutdown()


# -- deadline shedding ----------------------------------------------------------------


def test_deadline_shedding_is_deterministic_and_typed() -> None:
    kernel = SimKernel(resident=True)
    config = AdmissionConfig(
        min_concurrency=1, max_concurrency=1, probe_queries=10_000
    )
    controller = AdmissionController(kernel, config, ceiling=1)

    async def scenario():
        # No service-time estimate yet: nothing is shed, however tight.
        first = await controller.admit("t", deadline_ms=1.0)
        controller.release(first, 2.0)  # EWMA = 2.0 model seconds
        # 500 model-ms deadline < 2s service estimate: shed up front.
        with pytest.raises(AdmissionRejected) as excinfo:
            await controller.admit("t", deadline_ms=500.0)
        assert excinfo.value.retry_after == pytest.approx(2.0)
        assert excinfo.value.tenant == "t"
        # A meetable deadline is admitted.
        ticket = await controller.admit("t", deadline_ms=60_000.0)
        controller.release(ticket, 2.0)
        return controller.stats()

    stats = kernel.run(scenario())
    assert stats.shed == 1
    assert stats.admitted == 2
    assert stats.tenants["t"]["rejected"] == 1
    kernel.shutdown()


def test_engine_sheds_deterministically_given_seeded_latencies() -> None:
    def shed_pattern() -> list[int]:
        engine = fresh_engine(
            admission=AdmissionConfig(min_concurrency=1, max_concurrency=1),
            max_concurrency=1,
        )
        queries = [(QUERY1_SQL, {}) for _ in range(2)]
        # After two completions the EWMA is the measured Query1 service
        # time (~590 model ms): a 100ms deadline is unmeetable, 10^6 ms
        # is comfortable.
        queries += [
            (QUERY1_SQL, {"deadline_ms": 100.0}),
            (QUERY1_SQL, {"deadline_ms": 1_000_000.0}),
            (QUERY1_SQL, {"deadline_ms": 100.0}),
        ]
        results = engine.sql_many(queries, return_exceptions=True, options=PARALLEL)
        pattern = [
            index
            for index, result in enumerate(results)
            if isinstance(result, AdmissionRejected)
        ]
        for index, result in enumerate(results):
            if index not in pattern:
                assert len(result.rows) == 360
        engine.close()
        return pattern

    first, second = shed_pattern(), shed_pattern()
    assert first == second
    assert first == [2, 4]


# -- engine integration ----------------------------------------------------------------


def test_adaptive_rows_match_static_rows() -> None:
    static = fresh_engine()
    expected = sorted(
        tuple(row)
        for result in static.sql_many([QUERY1_SQL] * 6, options=PARALLEL)
        for row in result.rows
    )
    static.close()

    adaptive = fresh_engine(admission="adaptive")
    results = adaptive.sql_many([QUERY1_SQL] * 6, options=PARALLEL)
    actual = sorted(
        tuple(row) for result in results for row in result.rows
    )
    stats = adaptive.stats()
    adaptive.close()

    assert actual == expected
    assert stats.admission_policy == "adaptive"
    assert stats.admission_limit >= 1


def test_adaptive_admission_is_deterministic_under_sim() -> None:
    def run():
        engine = fresh_engine(admission="adaptive")
        results = engine.sql_many([QUERY1_SQL] * 10, options=PARALLEL)
        stats = engine.stats()
        engine.close()
        return (
            [result.elapsed for result in results],
            stats.admission_limit,
            stats.admission_raises,
            stats.admission_backoffs,
        )

    assert run() == run()


def test_controller_holds_latency_that_static_overadmission_inflates() -> None:
    clients = 8

    static = fresh_engine(max_concurrency=clients)
    baseline = static.sql(QUERY1_SQL, options=PARALLEL).elapsed
    static_worst = max(
        result.elapsed
        for result in static.sql_many([QUERY1_SQL] * clients, options=PARALLEL)
    )
    static.close()

    adaptive = fresh_engine(admission="adaptive", max_concurrency=clients)
    adaptive.sql(QUERY1_SQL, options=PARALLEL)  # warm + baseline sample
    adaptive_worst = max(
        result.elapsed
        for result in adaptive.sql_many([QUERY1_SQL] * clients, options=PARALLEL)
    )
    adaptive.close()

    assert static_worst / baseline > 1.5  # over-admission hurts
    assert adaptive_worst / baseline < static_worst / baseline


def test_fairness_and_shedding_survive_fault_injection() -> None:
    """on_error="retry" + seeded faults churn service times; fairness and
    deadline decisions must stay correct (and deterministic)."""

    def run():
        engine = fresh_engine(
            admission=AdmissionConfig(
                min_concurrency=1,
                max_concurrency=2,
                tenant_weights={"fast": 4.0, "slow": 1.0},
            ),
            max_concurrency=2,
        )
        queries = []
        for index in range(12):
            tenant = "slow" if index < 8 else "fast"
            queries.append((QUERY1_SQL, {"tenant": tenant}))
        results = engine.sql_many(
            queries,
            return_exceptions=True,
            options=PARALLEL.replace(
                on_error="retry",
                faults=FaultInjection(call_failure_probability=0.02, seed=7),
            ),
        )
        log = list(engine.admission.admission_log)
        stats = engine.admission.stats()
        engine.close()
        return results, log, stats

    results, log, stats = run()
    for result in results:
        assert not isinstance(result, Exception), result
        assert len(result.rows) == 360
    # The heavy "slow" backlog cannot starve the lighter-loaded, heavier-
    # weighted "fast" tenant: its first grant lands well before the slow
    # queue drains.
    assert "fast" in log
    assert log.index("fast") < len(log) - 2
    assert stats.tenants["fast"]["admitted"] == 4
    assert stats.tenants["slow"]["admitted"] == 8

    # Determinism under seeded faults: identical admission order.
    _, log2, _ = run()
    assert log == log2


# -- AFF fanout caps ----------------------------------------------------------------


class _StubBroker:
    def __init__(self, report):
        self._report = report

    def contention(self):
        return self._report


def test_fanout_cap_from_contended_endpoint() -> None:
    kernel = SimKernel(resident=True)
    controller = AdmissionController(
        kernel,
        AdmissionConfig(),
        ceiling=8,
        broker=_StubBroker(
            {
                "hot": {
                    "capacity": 3,
                    "queue_wait_mean": 2.0,
                    "server_time_mean": 1.0,
                },
                "cool": {
                    "capacity": 10,
                    "queue_wait_mean": 0.1,
                    "server_time_mean": 1.0,
                },
            }
        ),
    )
    # Only the saturated endpoint (queue/serve = 2.0 > 0.5) caps fanout:
    # two in-flight calls per server slot.
    assert controller.fanout_cap() == 6
    kernel.shutdown()


def test_no_fanout_cap_when_uncontended_or_disabled() -> None:
    kernel = SimKernel(resident=True)
    report = {
        "cool": {"capacity": 4, "queue_wait_mean": 0.1, "server_time_mean": 1.0}
    }
    assert (
        AdmissionController(
            kernel, AdmissionConfig(), ceiling=8, broker=_StubBroker(report)
        ).fanout_cap()
        is None
    )
    assert (
        AdmissionController(
            kernel,
            AdmissionConfig(fanout_caps=False),
            ceiling=8,
            broker=_StubBroker(
                {
                    "hot": {
                        "capacity": 1,
                        "queue_wait_mean": 9.0,
                        "server_time_mean": 1.0,
                    }
                }
            ),
        ).fanout_cap()
        is None
    )
    kernel.shutdown()


# -- stale kernel-bound primitives (regression) ------------------------------------


def test_engine_recovers_after_kernel_shutdown_sim() -> None:
    """Kernel.shutdown() + engine reuse must not resurrect primitives or
    warm pools from the dead run (regression: the admission semaphore was
    created once and never invalidated)."""
    kernel = SimKernel(resident=True)
    engine = QueryEngine(fresh_wsmed(), kernel=kernel, max_concurrency=2)
    before = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert all(len(result.rows) == 360 for result in before)

    kernel.shutdown()  # kills warm children, invalidates primitives

    after = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert [sorted(map(tuple, r.rows)) for r in after] == [
        sorted(map(tuple, r.rows)) for r in before
    ]
    stats = engine.stats()
    assert engine.pool_registry.stats.discarded > 0
    assert stats.queries == 6
    engine.close()


def test_engine_recovers_after_kernel_shutdown_asyncio() -> None:
    kernel = AsyncioKernel(resident=True)
    engine = QueryEngine(fresh_wsmed(), kernel=kernel, max_concurrency=2)
    before = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)

    kernel.shutdown()  # closes the resident loop; run() makes a fresh one

    after = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert [sorted(map(tuple, r.rows)) for r in after] == [
        sorted(map(tuple, r.rows)) for r in before
    ]
    engine.close()


def test_max_concurrency_change_takes_effect() -> None:
    engine = fresh_engine(max_concurrency=8)
    engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert engine.stats().peak_concurrency == 3

    engine.max_concurrency = 1  # must rebuild the admission semaphore
    engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert engine.stats().peak_concurrency == 3  # unchanged: admitted 1 by 1
    engine.close()
