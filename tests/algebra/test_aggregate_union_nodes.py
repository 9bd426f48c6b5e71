"""Unit tests for the aggregation and union plan nodes."""

import pickle

import pytest

from repro.algebra.expressions import ColExpr, ConstExpr
from repro.algebra.plan import (
    AggregateNode,
    FilterNode,
    PlanError,
    UnionNode,
)
from repro.util.errors import CalculusError
from repro.wsmed.system import WSMED

from tests.algebra.test_postops_join_nodes import rows_source, run


# -- AggregateNode ---------------------------------------------------------------


def test_grouped_aggregates_stream_in_first_occurrence_order() -> None:
    rows = [("a", 3), ("b", 5), ("a", 7), ("c", 1), ("b", 5)]
    source, fn = rows_source("data", rows, ["tag", "n"])
    node = AggregateNode(
        source,
        (
            ("tag", "key", ColExpr("tag")),
            ("cnt", "count", ColExpr("n")),
            ("total", "sum", ColExpr("n")),
            ("low", "min", ColExpr("n")),
            ("high", "max", ColExpr("n")),
            ("mean", "avg", ColExpr("n")),
        ),
    )
    assert run(node, [fn]) == [
        ("a", 2, 10, 3, 7, 5.0),
        ("b", 2, 10, 5, 5, 5.0),
        ("c", 1, 1, 1, 1, 1.0),
    ]


def test_global_aggregate_emits_one_row_even_on_empty_input() -> None:
    source, fn = rows_source("data", [(1,)], ["n"])
    node = AggregateNode(
        source,
        (
            ("cnt", "count", ColExpr("n")),
            ("total", "sum", ColExpr("n")),
            ("mean", "avg", ColExpr("n")),
        ),
    )
    assert run(node, [fn]) == [(1, 1, 1.0)]

    empty, empty_fn = rows_source("void", [(1,)], ["n"])
    filtered_node = AggregateNode(
        FilterNode(empty, "=", ColExpr("n"), ConstExpr(999)),
        (
            ("cnt", "count", ColExpr("n")),
            ("total", "sum", ColExpr("n")),
            ("mean", "avg", ColExpr("n")),
        ),
    )
    assert run(filtered_node, [empty_fn]) == [(0, None, None)]


def test_aggregate_schema_is_the_item_names() -> None:
    source, _ = rows_source("data", [(1,)], ["n"])
    node = AggregateNode(
        source, (("cnt", "count", ColExpr("n")),)
    )
    assert node.schema == ("cnt",)


def test_aggregate_rejects_unknown_kind() -> None:
    source, _ = rows_source("data", [(1,)], ["n"])
    with pytest.raises(PlanError):
        AggregateNode(source, (("x", "median", ColExpr("n")),))


# -- UnionNode -------------------------------------------------------------------


def test_union_concatenates_branches_in_order() -> None:
    first, first_fn = rows_source("first", [(1,), (2,)], ["x"])
    second, second_fn = rows_source("second", [(3,), (1,)], ["x"])
    node = UnionNode((first, second))
    assert run(node, [first_fn, second_fn]) == [(1,), (2,), (3,), (1,)]


def test_union_requires_matching_schemas() -> None:
    first, _ = rows_source("first", [(1,)], ["x"])
    second, _ = rows_source("second", [(1,)], ["y"])
    with pytest.raises(PlanError, match="schema"):
        UnionNode((first, second))


def test_union_requires_two_branches() -> None:
    only, _ = rows_source("only", [(1,)], ["x"])
    with pytest.raises(PlanError):
        UnionNode((only,))


def test_aggregate_and_union_survive_a_pickle_round_trip() -> None:
    source, _ = rows_source("data", [("a", 1)], ["tag", "n"])
    aggregate = AggregateNode(
        source,
        (("tag", "key", ColExpr("tag")), ("cnt", "count", ColExpr("n"))),
    )
    assert pickle.loads(pickle.dumps(aggregate)) == aggregate
    union = UnionNode((source, source))
    assert pickle.loads(pickle.dumps(union)) == union


# -- compiler-level guards -------------------------------------------------------


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def test_non_grouped_column_is_rejected(wsmed) -> None:
    with pytest.raises(CalculusError, match="GROUP BY"):
        wsmed.plan(
            """
            SELECT gs.State, COUNT(*) FROM GetAllStates gs
            """
        )


def test_or_with_aggregates_is_rejected(wsmed) -> None:
    with pytest.raises(CalculusError, match="OR"):
        wsmed.plan(
            """
            SELECT COUNT(*) FROM GetAllStates gs
            WHERE gs.State = 'GA' OR gs.State = 'CO'
            """
        )


def test_or_plan_is_distinct_over_union(wsmed) -> None:
    plan = wsmed.plan(
        """
        SELECT gs.State FROM GetAllStates gs
        WHERE gs.State = 'GA' OR gs.State = 'CO'
        """
    )
    from repro.render import render_plan

    rendered = render_plan(plan)
    assert "∪ 2 branches" in rendered
    assert rendered.startswith("distinct")
