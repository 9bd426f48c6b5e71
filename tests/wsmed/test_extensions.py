"""Tests for the extensions beyond the paper's core: DISTINCT/ORDER BY/
LIMIT, bushy plans over independent service chains (the paper's Sec. VII
future work), and transient-fault retries."""

import pytest

from repro import FaultInjection, QueryOptions, TraceRecorder, WSMED
from repro.render import render_report, render_summary
from repro.util.errors import BindingError, CalculusError, ReproError, ServiceFault

BUSHY_SQL = """
SELECT gs1.State, gp.ToCity
FROM   GetAllStates gs1, GetInfoByState gi, GetAllStates gs2, GetPlacesWithin gp
WHERE  gi.USState = gs1.State AND gp.state = gs2.State AND gp.place = 'Atlanta'
  AND  gp.distance = 15.0 AND gp.placeTypeToFind = 'City'
  AND  gs1.State = gs2.State
"""


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


# -- DISTINCT / ORDER BY / LIMIT -----------------------------------------------


def test_order_by_and_limit(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.State FROM GetAllStates gs ORDER BY gs.State DESC LIMIT 3"
    )
    assert result.rows == [("Wyoming",), ("Wisconsin",), ("West Virginia",)]


def test_order_by_ascending_default(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.State FROM GetAllStates gs ORDER BY gs.State LIMIT 2"
    )
    assert result.rows == [("Alabama",), ("Alaska",)]


def test_order_by_multiple_keys(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gp.ToState, gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City' "
        "ORDER BY gp.ToState, gp.ToCity DESC"
    )
    # Primary key ascending; within each state the cities descend.
    states = [row[0] for row in result.rows]
    assert states == sorted(states)
    for state in set(states):
        cities = [row[1] for row in result.rows if row[0] == state]
        assert cities == sorted(cities, reverse=True)


def test_order_by_result_column_name(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.Name AS statename FROM GetAllStates gs "
        "ORDER BY statename LIMIT 1"
    )
    assert result.rows == [("Alabama",)]


def test_order_by_unselected_column_rejected(wsmed) -> None:
    with pytest.raises(CalculusError, match="select list"):
        wsmed.sql("SELECT gs.Name FROM GetAllStates gs ORDER BY gs.LatDegrees")


def test_distinct_eliminates_duplicates(wsmed) -> None:
    duplicated = wsmed.sql(
        "SELECT gp.ToState FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
    )
    distinct = wsmed.sql(
        "SELECT DISTINCT gp.ToState FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
    )
    assert len(duplicated) == 260
    assert len(distinct) == 26
    assert set(distinct.rows) == set(duplicated.rows)


def test_limit_zero(wsmed) -> None:
    result = wsmed.sql("SELECT gs.State FROM GetAllStates gs LIMIT 0")
    assert result.rows == []


def test_limit_stops_consuming_web_service_calls(wsmed) -> None:
    # Without LIMIT the query makes 1 + 50 calls; stopping after 7 rows
    # abandons the remaining GetPlacesWithin calls.
    result = wsmed.sql(
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City' LIMIT 7",
        options=QueryOptions(
            mode="parallel",
            fanouts=[3],
        ),
    )
    assert len(result) == 7
    assert result.total_calls < 20


def test_sort_and_limit_stay_in_coordinator(wsmed) -> None:
    plan = wsmed.plan(
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City' "
        "ORDER BY gp.ToCity LIMIT 5",
        options=QueryOptions(
            mode="parallel",
            fanouts=[4],
        ),
    )
    # Top of the plan: limit(sort(FF_APPLYP(...))).
    assert plan.label().startswith("limit")
    assert plan.child.label().startswith("sort")
    assert "FF_APPLYP" in plan.child.child.label()


def test_order_by_parallel_matches_central(wsmed) -> None:
    sql = (
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City' "
        "ORDER BY gp.ToCity"
    )
    central = wsmed.sql(sql)
    parallel = wsmed.sql(sql, options=QueryOptions(mode="parallel", fanouts=[5]))
    # Sorted output is fully deterministic even under first-finished
    # delivery.
    assert parallel.rows == central.rows


# -- bushy plans over independent chains ------------------------------------------


def test_self_join_on_independent_chains(wsmed) -> None:
    result = wsmed.sql(
        "SELECT a.Name, b.LatDegrees FROM GetAllStates a, GetAllStates b "
        "WHERE a.State = b.State"
    )
    assert len(result) == 50
    assert result.columns == ("Name", "LatDegrees")


def test_bushy_query_modes_agree(wsmed) -> None:
    central = wsmed.sql(BUSHY_SQL)
    parallel = wsmed.sql(
        BUSHY_SQL,
        options=QueryOptions(mode="parallel", fanouts=[2, 3]),
    )
    adaptive = wsmed.sql(BUSHY_SQL, options=QueryOptions(mode="adaptive"))
    assert len(central) == 260
    assert parallel.as_bag() == central.as_bag()
    assert adaptive.as_bag() == central.as_bag()


def test_bushy_branches_overlap_in_time(wsmed) -> None:
    # Independent chains evaluate concurrently even in "central" mode:
    # the elapsed time is less than the sum of the two chains alone.
    chain1 = wsmed.sql(
        "SELECT gi.GetInfoByStateResult FROM GetAllStates gs1, GetInfoByState gi "
        "WHERE gi.USState = gs1.State"
    )
    chain2 = wsmed.sql(
        "SELECT gp.ToCity FROM GetAllStates gs2, GetPlacesWithin gp "
        "WHERE gp.state = gs2.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
    )
    bushy = wsmed.sql(BUSHY_SQL)
    assert bushy.elapsed < chain1.elapsed + chain2.elapsed
    assert bushy.elapsed >= max(chain1.elapsed, chain2.elapsed) * 0.9


def test_bushy_fanout_vector_covers_all_branches(wsmed) -> None:
    from repro.util.errors import PlanError

    with pytest.raises(PlanError, match="fanout vector"):
        wsmed.sql(BUSHY_SQL, options=QueryOptions(mode="parallel", fanouts=[2]))


def test_cartesian_product_rejected(wsmed) -> None:
    with pytest.raises(BindingError, match="cartesian"):
        wsmed.sql(
            "SELECT a.Name, b.Name FROM GetAllStates a, GetAllStates b"
        )


# -- retries ------------------------------------------------------------------------


def service_faults(probability: float) -> FaultInjection:
    """Retriable service faults the broker injects on that share of calls."""
    return FaultInjection(service_fault_probability=probability)


#: 51 calls: at a 0.7 fault rate some call faults whatever the seed.
PLACES_SQL = (
    "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
    "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
    "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
)


def test_retries_rescue_transient_faults(wsmed) -> None:
    # Without retries a high fault rate kills the query...
    with pytest.raises(ServiceFault):
        wsmed.sql(PLACES_SQL, options=QueryOptions(faults=service_faults(0.7)))
    # ...with retries it survives, and the trace shows the attempts.
    result = wsmed.sql(
        PLACES_SQL,
        options=QueryOptions(faults=service_faults(0.7), retries=60, obs=TraceRecorder()),
    )
    assert len(result) == 260
    assert len(result.spans.find("retry")) >= 1


def test_retries_exhausted_still_fail(wsmed) -> None:
    with pytest.raises(ReproError):
        wsmed.sql(
            "SELECT gs.Name FROM GetAllStates gs",
            options=QueryOptions(faults=service_faults(0.999), retries=2),
        )


def test_retry_in_parallel_child(wsmed) -> None:
    result = wsmed.sql(
        PLACES_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[4],
            faults=service_faults(0.05),
            retries=30,
            obs=TraceRecorder(),
        ),
    )
    assert len(result) == 260
    retry_processes = {event.process for event in result.spans.find("retry")}
    assert retry_processes  # at least one retry happened somewhere


def test_retry_trace_events_number_the_attempts(wsmed) -> None:
    """Each ``retry`` event carries the operation and a 1-based attempt:
    the central plan makes its calls one after another, so each call's
    retries are a run 1, 2, ... of their own."""
    result = wsmed.sql(
        PLACES_SQL,
        options=QueryOptions(faults=service_faults(0.7), retries=60, obs=TraceRecorder()),
    )
    retries = result.spans.find("retry")
    assert retries  # 51 calls at a 0.7 fault rate
    attempts = [event.attrs["attempt"] for event in retries]
    assert all(a == 1 or a == b + 1 for b, a in zip([0, *attempts], attempts))
    assert {event.attrs["operation"] for event in retries} <= {"GetAllStates", "GetPlacesWithin"}


def test_exhausted_retries_leave_a_call_fault_marker(wsmed) -> None:
    """A fault that survives the call-level retries is marked in the trace.

    Driven against the OWF wrapper directly so the trace survives the
    raised fault (the facade's trace is unreachable when ``sql`` raises).
    """
    from repro.algebra.interpreter import ExecutionContext
    from repro.obs.run import QueryRun
    from repro.obs.spans import TraceRecorder
    from repro.runtime.simulated import SimKernel

    kernel = SimKernel()
    ctx = ExecutionContext(
        kernel=kernel,
        broker=wsmed.registry.bind(kernel),
        functions=wsmed.functions,
        run=QueryRun(retries=2, faults=service_faults(0.999), obs=TraceRecorder()),
    )
    wrapper = wsmed.functions.resolve("GetAllStates").implementation

    async def main():
        with pytest.raises(ServiceFault):
            await wrapper.call(ctx, [])

    kernel.run(main())
    markers = ctx.run.obs.store.find("call_fault")
    assert len(markers) == 1
    data = markers[0].attrs
    assert data["operation"] == "GetAllStates"
    # attempts = the initial call plus every recorded retry.
    assert data["attempts"] == 1 + len(ctx.run.obs.store.find("retry"))
    assert "error" in data
    assert "retriable" in data


def test_fault_stats_surface_on_the_query_result(wsmed) -> None:
    sql = (
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'"
    )
    clean = wsmed.sql(sql, options=QueryOptions(mode="parallel", fanouts=[4]))
    assert not clean.fault_stats.any()
    assert render_report(clean, sections="faults") == "faults: none"
    assert "faults:" not in render_summary(clean)

    result = wsmed.sql(
        sql,
        options=QueryOptions(
            mode="parallel",
            fanouts=[4],
            on_error="retry",
            faults=FaultInjection(call_failure_probability=0.05),
        ),
    )
    assert result.as_bag() == clean.as_bag()
    assert result.fault_stats.failed_calls > 0
    assert result.fault_stats.redeliveries > 0
    assert "failed calls" in render_report(result, sections="faults")
    assert "faults:" in render_summary(result)
