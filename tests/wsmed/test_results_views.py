"""Tests for QueryResult helpers and view rendering."""

import pytest

from repro.fdb.functions import FunctionDef, FunctionKind, Parameter
from repro.fdb.types import CHARSTRING, REAL, TupleType
from repro.obs.run import TreeStats
from repro.render import render_process_tree, render_summary, render_utilization
from repro.services.broker import CallStats
from repro.util.errors import ReproError
from repro.wsmed.results import QueryResult
from repro.wsmed.views import render_view, view_columns


def make_result(**overrides) -> QueryResult:
    defaults = dict(
        columns=("city", "state"),
        rows=[("Atlanta", "GA"), ("Austin", "TX")],
        elapsed=12.5,
        mode="parallel",
        total_calls=42,
    )
    defaults.update(overrides)
    return QueryResult(**defaults)


def test_len_iter_and_dicts() -> None:
    result = make_result()
    assert len(result) == 2
    assert list(result)[1] == ("Austin", "TX")
    assert result.as_dicts()[0] == {"city": "Atlanta", "state": "GA"}


def test_as_bag_order_insensitive() -> None:
    reversed_result = make_result(rows=[("Austin", "TX"), ("Atlanta", "GA")])
    assert make_result().as_bag() == reversed_result.as_bag()


def test_calls_helper_defaults_to_zero() -> None:
    stats = CallStats(calls=7)
    result = make_result(call_stats={"GetPlaceList": stats})
    assert result.calls("GetPlaceList") == 7
    assert result.calls("GetAllStates") == 0


def test_summary_includes_stats_and_tree() -> None:
    tree = TreeStats(processes_spawned=25, processes_dropped=2, alive={("q0", "PF1"): 5})
    result = make_result(call_stats={"Op": CallStats(calls=3)}, tree=tree)
    summary = render_summary(result)
    assert "2 rows in 12.50 model seconds" in summary
    assert "Op: 3 calls" in summary
    assert "25 spawned, 2 dropped" in summary


def test_event_views_need_a_traced_run() -> None:
    result = make_result()
    assert result.spans is None
    with pytest.raises(ReproError, match="TraceRecorder"):
        render_process_tree(result.spans)
    with pytest.raises(ReproError, match="not traced"):
        render_utilization(result.spans)


def sample_function() -> FunctionDef:
    return FunctionDef(
        name="GetPlacesWithin",
        kind=FunctionKind.OWF,
        parameters=(
            Parameter("place", CHARSTRING),
            Parameter("distance", REAL),
        ),
        result=TupleType((("ToCity", CHARSTRING),)),
        implementation=None,
        documentation="radius search",
    )


def test_view_columns_inputs_then_outputs() -> None:
    columns = view_columns(sample_function())
    assert columns == [
        ("place", "Charstring", "input"),
        ("distance", "Real", "input"),
        ("ToCity", "Charstring", "output"),
    ]


def test_render_view_text() -> None:
    text = render_view(sample_function())
    assert "CREATE VIEW GetPlacesWithin" in text
    assert "place Charstring -- input" in text
    assert "ToCity Charstring -- output" in text
    assert "radius search" in text
