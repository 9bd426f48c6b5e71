"""Tests for the cost estimator and plan rendering."""

import pytest

from repro.algebra.cost import CostModel, NodeEstimate, estimate_nodes, estimate_plan
from repro.render import render_plan

from tests.helpers import QUERY1_SQL, QUERY2_SQL, make_world


@pytest.fixture(scope="module")
def world():
    return make_world()


def test_estimate_counts_owf_calls(world) -> None:
    plan = world.central_plan(QUERY2_SQL)
    model = CostModel(
        fanouts={
            "GetAllStates": 50,
            "GetInfoByState": 1,
            "getzipcode": 99,
            "GetPlacesInside": 2,
        },
        call_costs={"GetInfoByState": 8.0, "GetPlacesInside": 0.4},
        selectivity=1.0,
    )
    estimate = estimate_plan(plan, world.functions, model)
    assert estimate.calls["GetAllStates"] == 1
    assert estimate.calls["GetInfoByState"] == 50
    assert estimate.calls["GetPlacesInside"] == 4950
    # Helping functions are not web-service calls.
    assert "getzipcode" not in estimate.calls
    assert estimate.sequential_time == pytest.approx(
        1 * 0.5 + 50 * 8.0 + 4950 * 0.4
    )


def test_estimate_defaults_are_finite(world) -> None:
    plan = world.central_plan(QUERY1_SQL)
    estimate = estimate_plan(plan, world.functions)
    assert estimate.total_calls > 0
    assert estimate.sequential_time > 0


def test_estimate_of_grouped_and_global_aggregates(world) -> None:
    model = CostModel(fanouts={"GetAllStates": 50})
    grouped = world.central_plan(
        "SELECT gs.State, count(*) AS n FROM GetAllStates gs GROUP BY gs.State"
    )
    total = world.central_plan("SELECT count(*) AS n FROM GetAllStates gs")
    # A GROUP BY keeps GROUP_REDUCTION of its input; a global aggregate one row.
    assert estimate_plan(grouped, world.functions, model).output_cardinality == 5
    assert estimate_plan(total, world.functions, model).output_cardinality == 1
    assert estimate_nodes(grouped, world.functions, model)[id(grouped)] == (
        NodeEstimate(50, 5)
    )


def test_render_plan_shows_operators_and_schemas(world) -> None:
    text = render_plan(world.central_plan(QUERY1_SQL, "Query1"))
    assert "γ GetPlacesWithin('Atlanta', gs_State, 15, 'City')" in text
    assert "singleton" in text
    assert "π placename=gl_placename" in text
    # Deeper operators are more indented (top-down rendering).
    lines = text.splitlines()
    assert lines[-1].startswith(" ")
    assert not lines[0].startswith(" ")
