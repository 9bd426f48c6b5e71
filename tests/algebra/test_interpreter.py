"""End-to-end central execution tests (fast profile, virtual time)."""

import pytest

from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import ParamNode, PlanError
from repro.parallel.faults import FaultInjection
from repro.runtime.simulated import SimKernel
from repro.util.errors import ServiceFault

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def query2_run(world):
    return world.run_central(QUERY2_SQL)


def test_query2_answer(query2_run) -> None:
    rows, _, _ = query2_run
    assert rows == [("CO", "80840")]


def test_query2_makes_over_5000_calls(query2_run) -> None:
    # Paper Sec. I: "A naïve implementation of the example query makes
    # 5000 calls sequentially".
    _, _, broker = query2_run
    assert broker.total_calls() == 5001
    assert broker.stats("GetPlacesInside").calls == 4950
    assert broker.stats("GetInfoByState").calls == 50


def test_query1_rows_and_calls(world) -> None:
    rows, _, broker = world.run_central(QUERY1_SQL)
    # Paper Sec. II.A: 360 result tuples, >300 web service calls.
    assert len(rows) == 360
    assert broker.total_calls() == 311
    assert broker.stats("GetPlaceList").calls == 260
    placenames = {row[0] for row in rows}
    assert "Atlanta" in placenames
    states = {row[1] for row in rows}
    assert len(states) == 26


def test_query1_sequential_time_dominated_by_calls(world) -> None:
    _, kernel, broker = world.run_central(QUERY1_SQL)
    total_call_time = broker.stats("GetPlaceList").total_time.total
    # With one row in flight at a time, elapsed >= the slowest stage's sum.
    assert kernel.now() >= total_call_time


def test_simple_single_view_query(world) -> None:
    rows, _, _ = world.run_central(
        "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Colorado'"
    )
    assert rows == [("Colorado",)]


def test_comparison_filters_execute(world) -> None:
    rows, _, _ = world.run_central(
        "SELECT gs.State FROM GetAllStates gs WHERE gs.LatDegrees > 40.0"
    )
    assert rows
    assert all(isinstance(row[0], str) for row in rows)


def test_select_star_execution(world) -> None:
    rows, _, _ = world.run_central("SELECT * FROM GetAllStates")
    assert len(rows) == 50
    assert len(rows[0]) == 7


def test_service_fault_propagates(world) -> None:
    with pytest.raises(ServiceFault):
        world.run_central(
            "SELECT gi.GetInfoByStateResult FROM GetInfoByState gi "
            "WHERE gi.USState = 'Mordor'"
        )


def test_injected_faults_propagate(world) -> None:
    with pytest.raises(ServiceFault, match="transiently"):
        world.run_central(QUERY2_SQL, faults=FaultInjection(service_fault_probability=0.2))


def test_param_node_outside_plan_function_rejected(world) -> None:
    kernel = SimKernel()
    broker = world.registry.bind(kernel)
    ctx = ExecutionContext(kernel=kernel, broker=broker, functions=world.functions)
    with pytest.raises(PlanError, match="param node"):
        kernel.run(compile_plan(ParamNode(schema=("x",))).rows(ctx))


def test_deterministic_execution(world) -> None:
    first, kernel1, _ = world.run_central(QUERY2_SQL)
    second, kernel2, _ = world.run_central(QUERY2_SQL)
    assert first == second
    assert kernel1.now() == kernel2.now()
