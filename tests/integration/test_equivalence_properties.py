"""Property-based equivalence: every execution strategy returns the same bag.

The FF_APPLYP/AFF_APPLYP protocol must never lose, duplicate or corrupt
rows regardless of the tree shape or adaptation parameters.  Hypothesis
drives random fanout vectors and adaptation settings over a small world
(tiny synthetic dataset + fast cost profile) and compares against the
central plan's result.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import WSMED, AdaptationParams, GeoConfig, build_registry, QueryOptions

SMALL_GEO = GeoConfig(
    seed=11,
    atlanta_state_count=4,
    neighbors_per_atlanta=3,
    locale_twin_total=6,
    zipcodes_per_state=8,
)

QUERY_POOL = [
    # A two-level dependent chain (Query1 shape).
    """
    SELECT gl.placename, gl.state
    FROM   GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl
    WHERE  gs.State = gp.state AND gp.distance = 15.0
      AND  gp.placeTypeToFind = 'City' AND gp.place = 'Atlanta'
      AND  gl.placeName = gp.ToCity + ', ' + gp.ToState
      AND  gl.MaxItems = 100 AND gl.imagePresence = 'true'
    """,
    # A chain with a helping function and a filter (Query2 shape).
    """
    SELECT gp.ToState, gp.zip
    FROM   GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp
    WHERE  gs.State = gi.USState AND gi.GetInfoByStateResult = gc.zipstr
      AND  gc.zipcode = gp.zip AND gp.ToPlace = 'USAF Academy'
    """,
    # A single-level parallel chain.
    """
    SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp
    WHERE  gp.state = gs.State AND gp.place = 'Atlanta'
      AND  gp.distance = 15.0 AND gp.placeTypeToFind = 'City'
    """,
]


@pytest.fixture(scope="module")
def world():
    wsmed = WSMED(build_registry("fast", geo_config=SMALL_GEO))
    wsmed.import_all()
    centrals = [wsmed.sql(
        sql,
        options=QueryOptions(mode="central"),
    ).as_bag() for sql in QUERY_POOL]
    return wsmed, centrals


@given(
    query_index=st.integers(min_value=0, max_value=len(QUERY_POOL) - 1),
    fanouts=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=2),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_manual_trees_preserve_results(world, query_index, fanouts) -> None:
    wsmed, centrals = world
    sql = QUERY_POOL[query_index]
    if query_index == 2:
        fanouts = fanouts[:1]  # single-level query takes one fanout
    result = wsmed.sql(sql, options=QueryOptions(mode="parallel", fanouts=fanouts))
    assert result.as_bag() == centrals[query_index]


@given(
    query_index=st.integers(min_value=0, max_value=len(QUERY_POOL) - 1),
    p=st.integers(min_value=1, max_value=4),
    threshold=st.floats(min_value=0.05, max_value=0.8),
    drop_stage=st.booleans(),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_adaptive_trees_preserve_results(
    world, query_index, p, threshold, drop_stage
) -> None:
    wsmed, centrals = world
    result = wsmed.sql(
        QUERY_POOL[query_index],
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=p, threshold=threshold, drop_stage=drop_stage),
        ),
    )
    assert result.as_bag() == centrals[query_index]


@given(
    fanout=st.integers(min_value=1, max_value=6),
    flat=st.booleans(),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_flat_trees_preserve_results(world, fanout, flat) -> None:
    wsmed, centrals = world
    fanouts = [fanout, 0] if flat else [fanout, fanout]
    result = wsmed.sql(
        QUERY_POOL[0],
        options=QueryOptions(mode="parallel", fanouts=fanouts),
    )
    assert result.as_bag() == centrals[0]
