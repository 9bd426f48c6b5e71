"""Cost estimation and rendering over bushy (join) plans."""

import pytest

from repro.algebra.cost import CostModel, estimate_plan
from repro.render import render_plan

from tests.helpers import make_world

BUSHY_SQL = """
SELECT gs1.State, gp.ToCity
FROM   GetAllStates gs1, GetInfoByState gi, GetAllStates gs2, GetPlacesWithin gp
WHERE  gi.USState = gs1.State AND gp.state = gs2.State AND gp.place = 'Atlanta'
  AND  gp.distance = 15.0 AND gp.placeTypeToFind = 'City'
  AND  gs1.State = gs2.State
"""


@pytest.fixture(scope="module")
def world():
    return make_world()


def test_estimate_counts_both_join_branches(world) -> None:
    plan = world.central_plan(BUSHY_SQL)
    model = CostModel(
        fanouts={"GetAllStates": 50, "GetInfoByState": 1, "GetPlacesWithin": 5},
        selectivity=1.0,
    )
    estimate = estimate_plan(plan, world.functions, model)
    # Both chains call GetAllStates once, and each dependent call fans out
    # over its own branch's 50 states.
    assert estimate.calls["GetAllStates"] == 2
    assert estimate.calls["GetInfoByState"] == 50
    assert estimate.calls["GetPlacesWithin"] == 50
    assert estimate.sequential_time > 0


def test_render_plan_shows_join_with_two_children(world) -> None:
    plan = world.central_plan(BUSHY_SQL)
    text = render_plan(plan)
    assert "⋈ gs1_State = gs2_State" in text
    # Both branches render beneath the join.
    assert text.count("γ GetAllStates()") == 2
    assert "γ GetInfoByState" in text
    assert "γ GetPlacesWithin" in text


def test_render_parallel_bushy_plan_shows_both_operators(world) -> None:
    from repro.parallel.parallelizer import parallelize

    central = world.central_plan(BUSHY_SQL)
    plan = parallelize(central, world.functions, fanouts=[3, 4])
    text = render_plan(plan)
    assert "FF_APPLYP[PF1, fo=3]" in text
    assert "FF_APPLYP[PF2, fo=4]" in text
    assert "plan function PF1" in text
    assert "plan function PF2" in text
