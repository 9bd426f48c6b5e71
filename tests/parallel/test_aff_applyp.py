"""Tests of AFF_APPLYP adaptation dynamics (paper Sec. V.A, Figs 18-20)."""

import pytest

from repro.algebra.plan import AdaptationParams
from repro.fdb.values import Bag

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def adaptive_run(world):
    return run_parallel(
        world, QUERY1_SQL, adaptation=AdaptationParams(p=2, drop_stage=False)
    )


def test_adaptive_answer_is_correct(world, adaptive_run) -> None:
    rows, _, broker, _ = adaptive_run
    central_rows, _, _ = world.run_central(QUERY1_SQL)
    assert Bag(rows) == Bag(central_rows)
    assert broker.total_calls() == 311


def test_init_stage_builds_binary_tree(adaptive_run) -> None:
    _, _, _, ctx = adaptive_run
    init_events = ctx.run.obs.store.find("init_stage")
    assert init_events
    assert all(event.attrs["children"] == 2 for event in init_events)
    # The coordinator's init stage happens before any add stage.
    first_add = ctx.run.obs.store.find("add_stage")[0]
    assert init_events[0].start <= first_add.start


def test_add_stage_follows_first_monitoring_cycle(adaptive_run) -> None:
    _, _, _, ctx = adaptive_run
    coordinator_cycles = [
        event for event in ctx.run.obs.store.find("cycle")
        if event.process == "q0"
    ]
    coordinator_adds = [
        event for event in ctx.run.obs.store.find("add_stage")
        if event.process == "q0"
    ]
    assert coordinator_cycles and coordinator_adds
    assert coordinator_adds[0].start >= coordinator_cycles[0].start
    # Add stage adds exactly p children.
    assert coordinator_adds[0].attrs["added"] == 2


def test_monitoring_cycle_definition(adaptive_run) -> None:
    # A cycle completes when end-of-call messages equal the child count, so
    # each recorded cycle processed at least that many calls.
    _, _, _, ctx = adaptive_run
    for event in ctx.run.obs.store.find("cycle"):
        assert event.attrs["children"] >= 2
        assert event.attrs["time_per_tuple"] > 0


def test_nested_aff_pools_adapt_locally(adaptive_run) -> None:
    _, _, _, ctx = adaptive_run
    cycle_processes = {e.process for e in ctx.run.obs.store.find("cycle")}
    # Level-one processes run their own monitoring, not just q0.
    assert len(cycle_processes) > 1
    assert "q0" in cycle_processes


def test_adaptation_stops(adaptive_run) -> None:
    _, _, _, ctx = adaptive_run
    stops = ctx.run.obs.store.find("adapt_stop")
    assert stops  # at least the coordinator reached a stable tree


def test_adaptive_close_to_best_manual(world, adaptive_run) -> None:
    # Paper Fig 21: AFF_APPLYP reaches 80-96% of the best manual tree; we
    # assert the weaker shape-property that it beats the naive binary tree
    # and is within 2x of a good manual tree.
    _, adaptive_kernel, _, _ = adaptive_run
    _, manual_kernel, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    assert adaptive_kernel.now() < 2.0 * manual_kernel.now()


def test_drop_stage_drops_children(world) -> None:
    rows, _, _, ctx = run_parallel(
        world,
        QUERY2_SQL,
        adaptation=AdaptationParams(p=4, drop_stage=True, max_fanout=12),
    )
    assert rows == [("CO", "80840")]
    stats = ctx.run.tree
    # With aggressive adds, at least one pool should observe a slowdown
    # and drop; if none did, the trace must show adaptation stopped.
    assert stats.drop_stages > 0 or len(ctx.run.obs.store.find("adapt_stop")) > 0


def test_dropped_children_exit(world) -> None:
    _, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        adaptation=AdaptationParams(p=4, drop_stage=True, max_fanout=10),
    )
    assert len(ctx.run.obs.store.find("process_exit")) == len(ctx.run.obs.store.find("spawn"))


def test_max_fanout_bounds_tree(world) -> None:
    _, _, _, ctx = run_parallel(
        world,
        QUERY1_SQL,
        adaptation=AdaptationParams(p=8, threshold=0.01, max_fanout=6),
    )
    for event in ctx.run.obs.store.find("add_stage"):
        assert event.attrs["children"] <= 6


def test_average_fanouts_reported(world, adaptive_run) -> None:
    _, _, _, ctx = adaptive_run
    stats = ctx.run.tree
    assert set(stats.fanout_by_level) == {"PF1", "PF2"}
    assert stats.fanout_by_level["PF1"] >= 2.0
    assert stats.pools_by_level["PF2"] >= 2


def test_adaptation_deterministic(world) -> None:
    params = AdaptationParams(p=2)
    first = run_parallel(world, QUERY2_SQL, adaptation=params)
    second = run_parallel(world, QUERY2_SQL, adaptation=params)
    assert first[1].now() == second[1].now()
    assert first[3].run.tree.processes_spawned == (
        second[3].run.tree.processes_spawned
    )
