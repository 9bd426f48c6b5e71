"""The unified QueryOptions API: the only way to pass per-query knobs."""

import warnings

import pytest

from repro import (
    QUERY1_SQL,
    AdaptationParams,
    CacheConfig,
    FaultInjection,
    QueryEngine,
    QueryOptions,
    SimKernel,
    WSMED,
)
from repro.util.errors import PlanError
from repro.wsmed.options import ENGINE_ONLY, ONE_SHOT_ONLY, resolve_options


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


# -- resolve_options mechanics ---------------------------------------------------


def test_no_legacy_keywords_no_warning() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolved = resolve_options(None, where="WSMED.sql")
    assert resolved == QueryOptions()


def test_unknown_legacy_keyword_is_a_type_error(wsmed) -> None:
    """``options=`` is the only spelling: every former keyword — known
    field or not — is now a plain ``TypeError`` on all six surfaces."""
    engine = QueryEngine(wsmed)
    try:
        for surface in (wsmed.sql, wsmed.plan, wsmed.explain, engine.sql):
            for keyword in ({"mode": "parallel"}, {"fanout_vector": [3]}):
                with pytest.raises(TypeError):
                    surface(QUERY1_SQL, **keyword)
        with pytest.raises(TypeError):
            engine.sql_many([QUERY1_SQL], mode="parallel")
        with pytest.raises(TypeError):
            engine.sql_async(QUERY1_SQL, mode="parallel")
    finally:
        engine.close()


def test_non_options_object_is_rejected() -> None:
    with pytest.raises(PlanError, match="QueryOptions"):
        resolve_options({"mode": "central"}, where="WSMED.sql")


def test_rejected_fields_raise_only_when_set() -> None:
    resolve_options(QueryOptions(), where="X", rejected=ENGINE_ONLY)
    with pytest.raises(PlanError, match="tenant"):
        resolve_options(
            QueryOptions(tenant="analytics"), where="X", rejected=ENGINE_ONLY
        )


# -- surface equivalence ---------------------------------------------------------


def test_wsmed_explain_accepts_options(wsmed) -> None:
    report = wsmed.explain(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
    )
    assert "FF_APPLYP" in report
    assert "FF_APPLYP" not in wsmed.explain(QUERY1_SQL)


def test_options_only_callers_never_trip_a_deprecation_warning(wsmed) -> None:
    """A cold (plan-cache miss) and a warm engine query, and every WSMED
    surface, under ``-W error::DeprecationWarning``: the engine's own
    compile step used to call ``WSMED.plan`` keyword-style."""
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        engine = QueryEngine(wsmed)
        try:
            cold = engine.sql(QUERY1_SQL, options=options)
            warm = engine.sql(QUERY1_SQL, options=options)
        finally:
            engine.close()
        one_shot = wsmed.sql(QUERY1_SQL, options=options)
        wsmed.plan(QUERY1_SQL, options=options)
        wsmed.explain(QUERY1_SQL, options=options)
    assert engine.stats().plan_cache_hits == 1
    assert sorted(cold.rows) == sorted(warm.rows) == sorted(one_shot.rows)


# -- per-surface rejections ------------------------------------------------------


def test_one_shot_rejects_engine_only_fields(wsmed) -> None:
    with pytest.raises(PlanError, match="tenant"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(tenant="analytics"))
    with pytest.raises(PlanError, match="deadline_ms"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(deadline_ms=50.0))


def test_engine_rejects_one_shot_only_fields() -> None:
    system = WSMED(profile="fast")
    system.import_all()
    engine = QueryEngine(system)
    try:
        with pytest.raises(PlanError, match="kernel"):
            engine.sql(QUERY1_SQL, options=QueryOptions(kernel=SimKernel()))
        with pytest.raises(PlanError, match="observed"):
            engine.sql(QUERY1_SQL, options=QueryOptions(observed={}))
    finally:
        engine.close()


def test_engine_query_service_faults_reach_the_resident_broker() -> None:
    """A query's injected service faults fail its own calls at the
    engine's resident broker, and the next query does not inherit them."""
    system = WSMED(profile="fast")
    system.import_all()
    engine = QueryEngine(system)
    # 51 calls: at a 0.7 fault rate some call faults whatever the seed.
    sql = (
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
    )
    try:
        faulty = engine.sql(
            sql,
            options=QueryOptions(
                faults=FaultInjection(service_fault_probability=0.7), retries=60
            ),
        )
        assert len(faulty) == 260
        assert sum(stats.faults for stats in faulty.call_stats.values()) > 0
        clean = engine.sql(sql)
        assert len(clean) == 260
        assert sum(stats.faults for stats in clean.call_stats.values()) == 0
    finally:
        engine.close()


def test_field_sets_cover_distinct_fields() -> None:
    assert not (ONE_SHOT_ONLY & ENGINE_ONLY)
    field_names = set(QueryOptions.__dataclass_fields__)
    assert ONE_SHOT_ONLY <= field_names
    assert ENGINE_ONLY <= field_names


@pytest.mark.parametrize(
    "fields",
    [
        {"fanouts": "54"},
        {"fanouts": [2.5, 2]},
        {"fanouts": [True, 2]},
        {"fanouts": [5, -1]},
        {"retries": "x"},
        {"retries": -3},
        {"retries": False},
        {"name": 5},
        {"deadline_ms": float("nan")},
        {"deadline_ms": float("inf")},
        {"deadline_ms": "soon"},
        {"deadline_ms": 0},
        {"deadline_ms": -10},
        {"deadline_ms": True},
        {"optimize": "fast"},
        {"tenant": 7},
        {"tenant": "  "},
    ],
)
def test_malformed_field_values_are_plan_errors(fields) -> None:
    (name,) = fields
    with pytest.raises(PlanError, match=name):
        QueryOptions(**fields)
    with pytest.raises(PlanError, match=name):
        QueryOptions().replace(**fields)


@pytest.mark.parametrize(
    "config, fields",
    [
        (AdaptationParams, {"max_fanout": -3}),
        (AdaptationParams, {"max_fanout": 0}),
        (AdaptationParams, {"max_fanout": 1}),
        (AdaptationParams, {"max_fanout": True}),
        (AdaptationParams, {"max_fanout": 2.5}),
        (AdaptationParams, {"max_fanout": "x"}),
        (AdaptationParams, {"p": 1.5}),
        (AdaptationParams, {"drop_stage": "no"}),
        (CacheConfig, {"ttl": float("nan")}),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else repr(value),
)
def test_malformed_tuning_values_are_plan_errors(config, fields) -> None:
    """Values that would run silently (a fanout below the initial tree's,
    a truthy string, a ttl that never expires) or crash later as a
    TypeError are refused where they are built."""
    (name,) = fields
    with pytest.raises(PlanError, match=name):
        config(**fields)


def test_well_formed_field_values_are_accepted() -> None:
    options = QueryOptions(fanouts=[5, 0], retries=3, name="Q")
    assert (options.fanouts, options.retries, options.name) == ([5, 0], 3, "Q")


def test_options_replace_validates_names() -> None:
    options = QueryOptions()
    assert options.replace(retries=2).retries == 2
    with pytest.raises(TypeError):
        options.replace(retrys=2)
