"""Edge cases across the mediator stack."""

import pytest

from repro import QueryOptions, TraceRecorder, WSMED
from repro.calculus.expressions import Const
from repro.render import render_table
from repro.wsmed.results import QueryResult


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def test_integer_parameter_accepts_float_literal(wsmed) -> None:
    # MaxItems is an Integer parameter; 100.0 coerces.
    calculus = wsmed.plan  # noqa: F841  (ensure attribute exists)
    from repro.calculus.generator import generate_calculus
    from repro.sql.parser import parse_query

    sql = (
        "SELECT gl.placename FROM GetPlaceList gl WHERE "
        "gl.placeName = 'Atlanta, GA' AND gl.MaxItems = 100.0 "
        "AND gl.imagePresence = 'true'"
    )
    calc = generate_calculus(parse_query(sql), wsmed.functions)
    gl = calc.function_predicates()[0]
    assert gl.arguments[1] == Const(100)


def test_getzipcode_empty_string_yields_no_rows(wsmed) -> None:
    function = wsmed.functions.resolve("getzipcode")
    assert function.implementation("") == []
    assert function.implementation("1,2") == [("1",), ("2",)]


def test_query_returning_no_rows(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Winterfell'"
    )
    assert result.rows == []
    assert result.total_calls == 1


def test_parallel_query_with_empty_level_one_output(wsmed) -> None:
    # A place prefix matching nothing: GetPlacesWithin returns zero rows
    # for every state, so level-two children receive no parameters at all.
    result = wsmed.sql(
        "SELECT gl.placename FROM GetAllStates gs, GetPlacesWithin gp, "
        "GetPlaceList gl WHERE gs.State = gp.state AND gp.place = 'Xanadu' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City' "
        "AND gl.placeName = gp.ToCity + ', ' + gp.ToState "
        "AND gl.MaxItems = 5 AND gl.imagePresence = 'true'",
        options=QueryOptions(
            mode="parallel",
            fanouts=[3, 2],
            obs=TraceRecorder(),
        ),
    )
    assert result.rows == []
    assert result.calls("GetPlaceList") == 0
    # All 3 + 3x2 processes spawn, idle, and exit cleanly.
    assert len(result.spans.find("process_exit")) == len(result.spans.find("spawn"))


def test_format_table_empty_result() -> None:
    empty = QueryResult(
        columns=("a", "b"), rows=[], elapsed=0.0, mode="central", total_calls=0
    )
    text = render_table(empty)
    assert "a" in text.splitlines()[0]
    assert "(0 rows" in text


def test_adaptive_on_tiny_workload(wsmed) -> None:
    # Fewer parameter tuples than the initial binary tree: adaptation has
    # nothing to measure but the query must still complete.
    result = wsmed.sql(
        "SELECT gi.GetInfoByStateResult FROM GetAllStates gs, GetInfoByState gi "
        "WHERE gi.USState = gs.State AND gs.State = 'Texas'",
        options=QueryOptions(
            mode="adaptive",
        ),
    )
    assert len(result) == 1


def test_concat_coerces_numbers_to_text(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.Name AS label FROM GetAllStates gs "
        "WHERE gs.State = 'Nevada'"
    )
    assert result.rows == [("Nevada",)]
