"""The one admission path: pinned and adaptive limits, fairness, shedding,
bounded state, staleness.

Everything here runs under ``SimKernel``, so admission order, control
decisions and deadline rejections are bit-for-bit deterministic.  The
control law's constants are module constants of
:mod:`repro.engine.admission`; a test that needs another value patches
the constant.
"""

import hashlib

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    AdmissionConfig,
    AdmissionRejected,
    AsyncioKernel,
    QueryEngine,
    SimKernel,
    WSMED,
    QueryOptions,
)
from repro.engine import admission
from repro.engine.admission import AdmissionController, CapacityController
from repro.parallel.faults import FaultInjection
from repro.util.errors import ReproError

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
POLICIES = ("static", "adaptive")


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


def test_engine_rejects_unknown_admission_policy() -> None:
    with pytest.raises(ReproError, match="admission"):
        fresh_engine(admission="bogus")


def test_policy_is_derived_from_floor_and_ceiling() -> None:
    kernel = SimKernel(resident=True)
    static = AdmissionController(kernel, None, ceiling=4)
    assert static.capacity.pinned and static.limit == 4
    assert static.stats().policy == "static"
    adaptive = AdmissionController(kernel, AdmissionConfig(), ceiling=4)
    assert not adaptive.capacity.pinned
    assert adaptive.limit == admission.MIN_CONCURRENCY
    assert adaptive.stats().policy == "adaptive"
    # A ceiling at the floor leaves the adaptive policy nothing to move.
    assert AdmissionController(kernel, AdmissionConfig(), ceiling=1).capacity.pinned
    kernel.shutdown()


def test_max_concurrency_is_fixed_at_construction() -> None:
    engine = fresh_engine(max_concurrency=3)
    assert engine.max_concurrency == engine.stats().max_concurrency == 3
    with pytest.raises(AttributeError):
        engine.max_concurrency = 1
    engine.close()


# -- the control law ----------------------------------------------------------------


def _controller() -> CapacityController:
    return CapacityController(1.5, admission.MIN_CONCURRENCY, 8)


def _window(controller: CapacityController, level: int, latency: float) -> None:
    """One control window: PROBE_QUERIES completions at ``level``."""
    for _ in range(admission.PROBE_QUERIES):
        controller.observe(level, latency)
        controller.control_step()


def test_controller_ramps_while_inflation_is_low() -> None:
    controller = _controller()
    for _ in range(8):
        _window(controller, controller.limit, 1.0)  # flat latency at any level
    assert controller.limit == 8
    assert controller.raises == 7
    assert controller.backoffs == 0


def test_controller_backs_off_past_the_threshold() -> None:
    controller = _controller()
    # Level 1 baseline: 1.0s.  Level 2 doubles it (2.0x > 1.5x).
    _window(controller, 1, 1.0)
    assert controller.limit == 2
    _window(controller, 2, 2.0)
    assert controller.limit == 1
    assert controller.backoffs == 1
    assert controller.last_inflation == pytest.approx(2.0)


def test_controller_hysteresis_delays_reprobe_of_tripped_level() -> None:
    controller = _controller()
    _window(controller, 1, 1.0)
    _window(controller, 2, 2.0)
    assert controller.limit == 1  # level 2 tripped, backed off
    # Fewer than REPROBE_WINDOWS clean windows do not re-probe level 2...
    for _ in range(admission.REPROBE_WINDOWS - 1):
        _window(controller, 1, 1.0)
    assert controller.limit == 1
    # ...the REPROBE_WINDOWS-th consecutive clean window forgives it.
    _window(controller, 1, 1.0)
    assert controller.limit == 2
    assert controller.raises == 2


def test_sweep_table_reports_probed_levels() -> None:
    controller = _controller()
    _window(controller, 1, 1.0)
    _window(controller, 2, 1.8)
    table = controller.sweep_table()
    assert [row["level"] for row in table] == [1, 2]
    assert table[0]["inflation"] == pytest.approx(1.0)
    assert table[1]["inflation"] == pytest.approx(1.8)


def test_pinned_controller_takes_no_samples_and_never_moves() -> None:
    engine = fresh_engine(max_concurrency=2)
    engine.sql_many([QUERY1_SQL] * 5, options=PARALLEL)
    stats = engine.stats()
    assert stats.admission_policy == "static"
    assert stats.admission_limit == 2
    assert stats.admission_raises == stats.admission_backoffs == 0
    assert stats.admission_baseline_p50 == 0.0
    assert engine.admission.capacity.sweep_table() == []
    engine.close()


# -- weighted fair queueing ----------------------------------------------------------


def test_weighted_fair_interleave_is_exact(monkeypatch) -> None:
    monkeypatch.setattr(admission, "TENANT_WEIGHTS", {"A": 2.0, "B": 1.0})
    kernel = SimKernel(resident=True)
    controller = AdmissionController(kernel, None, ceiling=1)

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
    controller = AdmissionController(kernel, None, ceiling=1)

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


def test_static_policy_interleaves_tenants_by_weight(monkeypatch) -> None:
    """``tenant`` is honoured under the default policy: on a limit-1
    engine a 4:1 weighting admits four "gold" queries per "bronze" one
    (the parent's static semaphore ignored the field: pure arrival order)."""
    monkeypatch.setattr(admission, "TENANT_WEIGHTS", {"gold": 4.0, "bronze": 1.0})
    engine = fresh_engine(max_concurrency=1)
    tenants = ["bronze"] * 3 + ["gold"] * 8
    engine.sql_many(
        [(QUERY1_SQL, {"tenant": tenant}) for tenant in tenants],
        options=PARALLEL,
    )
    log = list(engine.admission.admission_log)
    engine.close()
    # The first arrival takes the idle slot (virtual time 1); bronze's
    # backlog is then tagged 2, 3 and gold's 1.25, 1.5, ... — four gold
    # grants per unit of virtual time, ties going to the earlier arrival.
    assert log == (
        ["bronze"] + ["gold"] * 3 + ["bronze"] + ["gold"] * 4 + ["bronze", "gold"]
    )


# -- deadline shedding ----------------------------------------------------------------


def test_deadline_shedding_is_deterministic_and_typed() -> None:
    kernel = SimKernel(resident=True)
    controller = AdmissionController(kernel, None, ceiling=1)

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
    """``deadline_ms`` is honoured under the default (static) policy."""

    def shed_pattern() -> list[int]:
        engine = fresh_engine(max_concurrency=1)
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
        assert engine.stats().admission_shed == len(pattern)
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


def test_fairness_and_shedding_survive_fault_injection(monkeypatch) -> None:
    """on_error="retry" + seeded faults churn service times; fairness and
    deadline decisions must stay correct (and deterministic)."""
    monkeypatch.setattr(admission, "TENANT_WEIGHTS", {"fast": 4.0, "slow": 1.0})

    def run():
        engine = fresh_engine(admission="adaptive", max_concurrency=2)
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


@pytest.mark.parametrize("policy", POLICIES)
def test_admission_counts_each_tenant_under_both_policies(policy) -> None:
    """Admitted and shed queries are counted per tenant, and the engine's
    statistics report the sheds, whichever policy admits them."""
    engine = fresh_engine(admission=policy, max_concurrency=2)
    engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    engine.sql(QUERY1_SQL, options=PARALLEL.replace(tenant="other"))
    with pytest.raises(AdmissionRejected):
        engine.sql(QUERY1_SQL, options=PARALLEL.replace(deadline_ms=1.0))
    tenants = engine.admission.stats().tenants
    assert tenants["default"]["admitted"] == 3
    assert tenants["default"]["rejected"] == 1
    assert tenants["other"]["admitted"] == 1
    assert engine.stats().admission_shed == 1
    engine.close()


# -- bounded state ---------------------------------------------------------------------


def test_state_stays_bounded_over_many_distinct_tenants() -> None:
    """Tenant names come from ``POST /sql`` clients: 10,000 of them must
    not grow the tenant table or the latency rings."""
    kernel = SimKernel(resident=True)
    controller = AdmissionController(kernel, AdmissionConfig(), ceiling=4)

    async def scenario() -> None:
        for index in range(10_000):
            try:
                ticket = await controller.admit(
                    f"tenant-{index}",
                    deadline_ms=1.0 if index % 7 == 0 else None,
                )
            except AdmissionRejected:
                continue
            controller.release(ticket, 1.0 + (index % 5) * 0.01)

    kernel.run(scenario())
    assert controller.admitted + controller.shed == 10_000
    assert controller.shed > 0
    assert len(controller._tenants) <= admission.MAX_TENANTS
    rings = controller.capacity.sweep_table()
    assert 0 < len(rings) <= controller.capacity.ceiling
    assert max(ring["samples"] for ring in rings) <= admission.WINDOW
    kernel.shutdown()


def test_busy_tenants_are_never_forgotten(monkeypatch) -> None:
    monkeypatch.setattr(admission, "MAX_TENANTS", 2)
    kernel = SimKernel(resident=True)
    controller = AdmissionController(kernel, None, ceiling=8)

    async def scenario() -> None:
        tickets = [await controller.admit(f"t{i}") for i in range(5)]
        assert len(controller._tenants) == 5  # all active: none forgettable
        for ticket in tickets:
            controller.release(ticket, 1.0)
        await controller.admit("late")
        assert set(controller._tenants) == {"late"}

    kernel.run(scenario())
    kernel.shutdown()


# -- AFF fanout caps ----------------------------------------------------------------


class _StubBroker:
    def __init__(self, report):
        self._report = report

    def contention(self):
        return self._report


_HOT = {"capacity": 3, "queue_wait_mean": 2.0, "server_time_mean": 1.0}
_COOL = {"capacity": 10, "queue_wait_mean": 0.1, "server_time_mean": 1.0}


def test_fanout_cap_from_contended_endpoint() -> None:
    kernel = SimKernel(resident=True)
    controller = AdmissionController(
        kernel,
        AdmissionConfig(),
        ceiling=8,
        broker=_StubBroker({"hot": _HOT, "cool": _COOL}),
    )
    # Only the saturated endpoint (queue/serve = 2.0 > 0.5) caps fanout:
    # two in-flight calls per server slot.
    assert controller.fanout_cap() == 6
    kernel.shutdown()


def test_no_fanout_cap_when_uncontended_or_disabled() -> None:
    kernel = SimKernel(resident=True)
    uncontended = AdmissionController(
        kernel, AdmissionConfig(), ceiling=8, broker=_StubBroker({"cool": _COOL})
    )
    assert uncontended.fanout_cap() is None
    # A pinned (static) controller adapts nothing, fanout included.
    pinned = AdmissionController(
        kernel, None, ceiling=8, broker=_StubBroker({"hot": _HOT})
    )
    assert pinned.fanout_cap() is None
    kernel.shutdown()


# -- the pinned controller is the seed semaphore ------------------------------------

#: ``(sql, options, clients, limit, final kernel clock, digest of the
#: per-query elapsed)`` of two consecutive ``sql_many`` batches, recorded
#: at commit 003cb38, where ``admission="static"`` was a plain
#: ``kernel.semaphore(max_concurrency)``.
_SEMAPHORE_SCHEDULES = {
    "q1-parallel-16x4": (
        QUERY1_SQL, PARALLEL, 16, 4, 31.22214144205262, "81df76709c87691b",
    ),
    "q1-parallel-16x1": (
        QUERY1_SQL, PARALLEL, 16, 1, 18.87879614049904, "86154fc2a01efd35",
    ),
    "q1-adaptive-8x3": (
        QUERY1_SQL, QueryOptions(mode="adaptive"), 8, 3,
        13.70031837138344, "3aaa2938280f6d13",
    ),
    "q2-parallel-6x2": (
        QUERY2_SQL, QueryOptions(mode="parallel", fanouts=[4, 3]), 6, 2,
        173.6806476416416, "eeb3d05ae8a1fb13",
    ),
    "q1-central-5x2": (
        QUERY1_SQL, QueryOptions(mode="central"), 5, 2,
        15.441874947731128, "c526766549160a3f",
    ),
    "q1-cold-single": (
        QUERY1_SQL, PARALLEL, 1, 8, 1.165245371496377, "7cb8a58e224e008a",
    ),
}


@pytest.mark.parametrize("case", list(_SEMAPHORE_SCHEDULES))
def test_pinned_controller_replays_the_semaphore_schedule(case) -> None:
    sql, options, clients, limit, clock, digest = _SEMAPHORE_SCHEDULES[case]
    kernel = SimKernel(resident=True)
    engine = QueryEngine(fresh_wsmed(), kernel=kernel, max_concurrency=limit)
    batches = [engine.sql_many([sql] * clients, options=options) for _ in range(2)]

    async def now() -> float:
        return kernel.now()

    elapsed = [[result.elapsed for result in batch] for batch in batches]
    assert kernel.run(now()) == clock, elapsed
    assert hashlib.sha256(repr(elapsed).encode()).hexdigest()[:16] == digest, elapsed
    engine.close()


# -- stale kernel-bound primitives (regression) ------------------------------------


def test_engine_recovers_after_kernel_shutdown_sim() -> None:
    """Kernel.shutdown() + engine reuse must not resurrect primitives or
    warm pools from the dead run (regression: the admission semaphore was
    created once and never invalidated) — under either policy."""
    for policy in POLICIES:
        kernel = SimKernel(resident=True)
        engine = QueryEngine(
            fresh_wsmed(), kernel=kernel, max_concurrency=2, admission=policy
        )
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
    for policy in POLICIES:
        kernel = AsyncioKernel(resident=True)
        engine = QueryEngine(
            fresh_wsmed(), kernel=kernel, max_concurrency=2, admission=policy
        )
        before = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)

        kernel.shutdown()  # closes the resident loop; run() makes a fresh one

        after = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
        assert [sorted(map(tuple, r.rows)) for r in after] == [
            sorted(map(tuple, r.rows)) for r in before
        ]
        engine.close()


def test_kernel_restart_clears_admission_the_dead_run_held() -> None:
    """Queries that died with the kernel never release: a restart must
    not leave their slots taken or their waiters queued."""
    kernel = SimKernel(resident=True)
    engine = QueryEngine(fresh_wsmed(), kernel=kernel, max_concurrency=1)

    async def abandon() -> None:
        await engine.admission.admit("held")  # never released
        kernel.spawn(engine.admission.admit("queued"), name="queued")
        await kernel.sleep(0)

    kernel.run(abandon())
    assert engine.stats().admission_queued == 1
    kernel.shutdown()

    (result,) = engine.sql_many([QUERY1_SQL], options=PARALLEL)
    assert len(result.rows) == 360
    assert engine.stats().admission_queued == 0
    engine.close()
