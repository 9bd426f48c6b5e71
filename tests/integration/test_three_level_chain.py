"""Three dependent web-service levels in one query.

Sec. VII: "Our algebra operators FF_APPLYP and AFF_APPLYP can handle
parallel query plans for a query with any number of dependent joins."
This query chains GetInfoByState -> GetPlacesInside -> GetPlaceList, so
the parallel plan has three FF_APPLYP levels (a process tree of depth 3).
"""

import pytest

from repro import WSMED, AdaptationParams, GeoConfig, build_registry, QueryOptions, TraceRecorder

THREE_LEVEL_SQL = """
SELECT gl.placename, gl.population
FROM   GetAllStates gs, GetInfoByState gi, getzipcode gc,
       GetPlacesInside gp, GetPlaceList gl
WHERE  gs.State = gi.USState
  AND  gi.GetInfoByStateResult = gc.zipstr
  AND  gc.zipcode = gp.zip
  AND  gl.placeName = gp.ToPlace + ', ' + gp.ToState
  AND  gl.MaxItems = 100 AND gl.imagePresence = 'true'
  AND  gs.State = 'Colorado'
"""

SMALL_GEO = GeoConfig(
    seed=5,
    atlanta_state_count=3,
    neighbors_per_atlanta=2,
    locale_twin_total=4,
    zipcodes_per_state=12,
)


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(build_registry("fast", geo_config=SMALL_GEO))
    system.import_all()
    return system


@pytest.fixture(scope="module")
def central(wsmed):
    return wsmed.sql(THREE_LEVEL_SQL, options=QueryOptions(mode="central"))


def test_central_three_levels(wsmed, central) -> None:
    # 12 zips in Colorado; every place inside them looked up by name.
    assert central.calls("GetInfoByState") == 1
    assert central.calls("GetPlacesInside") == 12
    assert central.calls("GetPlaceList") > 0
    assert len(central) > 0


def test_parallel_three_level_tree(wsmed, central) -> None:
    result = wsmed.sql(
        THREE_LEVEL_SQL,
        options=QueryOptions(mode="parallel", fanouts=[2, 2, 2]),
    )
    assert result.as_bag() == central.as_bag()
    # Pools are lazy: with a single state only one level-one child works,
    # so the full 2+4+8 tree never materializes — spawned processes are
    # 2 (level 1) + 2 (the active child's level 2) + 2x2 (level 3).
    assert result.tree.processes_spawned == 8
    assert set(result.tree.fanout_by_level) == {"PF1", "PF2", "PF3"}
    assert all(f == 2.0 for f in result.tree.fanout_by_level.values())


def test_three_level_plan_nests_three_ff_operators(wsmed) -> None:
    plan = wsmed.plan(
        THREE_LEVEL_SQL,
        options=QueryOptions(mode="parallel", fanouts=[2, 3, 4]),
    )
    level1 = plan
    assert level1.fanout == 2
    level2 = level1.plan_function.body
    assert level2.fanout == 3
    level3 = level2.plan_function.body
    assert level3.fanout == 4


def test_adaptive_three_levels(wsmed, central) -> None:
    result = wsmed.sql(
        THREE_LEVEL_SQL,
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=1, max_fanout=4),
            obs=TraceRecorder(),
        ),
    )
    assert result.as_bag() == central.as_bag()
    # Adaptation happened at more than one level of the tree.
    cycle_levels = {
        event.attrs["plan_function"] for event in result.spans.find("cycle")
    }
    assert len(cycle_levels) >= 2


def test_flat_fusion_of_inner_levels(wsmed, central) -> None:
    # {4, 0, 2}: fuse GetPlacesInside into GetInfoByState's plan function,
    # keep GetPlaceList as its own level.
    result = wsmed.sql(
        THREE_LEVEL_SQL,
        options=QueryOptions(mode="parallel", fanouts=[4, 0, 2]),
    )
    assert result.as_bag() == central.as_bag()
    # Level one spawns eagerly (4); only the one active child builds its
    # fused-level pool of 2.
    assert result.tree.processes_spawned == 6
    assert set(result.tree.fanout_by_level) == {"PF1", "PF3"}
