"""Unit tests for the post-processing and join plan nodes."""

import pickle

import pytest

from repro.algebra.expressions import ColExpr
from repro.algebra.interpreter import ExecutionContext, compile_plan
from repro.algebra.plan import (
    DistinctNode,
    JoinNode,
    LimitNode,
    ParamNode,
    PlanError,
    ProjectNode,
    SingletonNode,
    SortNode,
)
from repro.fdb.functions import FunctionRegistry, helping_function
from repro.fdb.types import CHARSTRING, INTEGER, TupleType
from repro.runtime.simulated import SimKernel


def rows_source(name, rows, columns):
    """A plan producing fixed rows via a helping function over singleton."""
    from repro.algebra.plan import ApplyNode

    registry_function = helping_function(
        name,
        [],
        TupleType(tuple((c, INTEGER if isinstance(rows[0][i], int) else CHARSTRING)
                        for i, c in enumerate(columns))),
        lambda rows=rows: list(rows),
    )
    node = ApplyNode(
        child=SingletonNode(), function=name, arguments=(), out_columns=tuple(columns)
    )
    return node, registry_function


def run(node, functions):
    registry = FunctionRegistry()
    for function in functions:
        registry.register(function)
    kernel = SimKernel()
    ctx = ExecutionContext(kernel=kernel, broker=None, functions=registry)
    return kernel.run(compile_plan(node).rows(ctx))


def test_distinct_preserves_first_occurrence_order() -> None:
    source, fn = rows_source("dup", [(1,), (2,), (1,), (3,), (2,)], ["x"])
    assert run(DistinctNode(source), [fn]) == [(1,), (2,), (3,)]


def test_sort_multi_key_stability() -> None:
    rows = [(2, "b"), (1, "b"), (2, "a"), (1, "a")]
    source, fn = rows_source("data", rows, ["n", "s"])
    node = SortNode(source, (("n", True), ("s", False)))
    assert run(node, [fn]) == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]


def test_sort_unknown_key_rejected() -> None:
    source, _ = rows_source("data", [(1,)], ["x"])
    with pytest.raises(PlanError, match="sort key"):
        SortNode(source, (("missing", True),))


def test_limit_truncates() -> None:
    source, fn = rows_source("data", [(i,) for i in range(10)], ["x"])
    assert run(LimitNode(source, 3), [fn]) == [(0,), (1,), (2,)]
    assert run(LimitNode(source, 0), [fn]) == []
    assert len(run(LimitNode(source, 99), [fn])) == 10


def test_limit_negative_rejected() -> None:
    with pytest.raises(PlanError):
        LimitNode(SingletonNode(), -1)


def test_join_matches_and_concatenates() -> None:
    left, left_fn = rows_source("l", [(1, "a"), (2, "b"), (3, "c")], ["lk", "lv"])
    right, right_fn = rows_source("r", [(2, "B"), (3, "C"), (4, "D")], ["rk", "rv"])
    node = JoinNode(left, right, (("lk", "rk"),))
    result = run(node, [left_fn, right_fn])
    assert sorted(result) == [(2, "b", 2, "B"), (3, "c", 3, "C")]
    assert node.schema == ("lk", "lv", "rk", "rv")


def test_join_duplicate_matches_multiply() -> None:
    left, left_fn = rows_source("l2", [(1, "x")], ["lk", "lv"])
    right, right_fn = rows_source("r2", [(1, "p"), (1, "q")], ["rk", "rv"])
    result = run(JoinNode(left, right, (("lk", "rk"),)), [left_fn, right_fn])
    assert len(result) == 2


def test_join_requires_conditions_and_disjoint_schemas() -> None:
    left, _ = rows_source("l3", [(1,)], ["k"])
    right, _ = rows_source("r3", [(1,)], ["k"])
    with pytest.raises(PlanError, match="share column names"):
        JoinNode(left, ProjectNode(right, (("k", ColExpr("k")),)), (("k", "k"),))
    right2, _ = rows_source("r4", [(1,)], ["k2"])
    with pytest.raises(PlanError, match="equality condition"):
        JoinNode(left, right2, ())


def test_join_unknown_keys_rejected() -> None:
    left, _ = rows_source("l5", [(1,)], ["a"])
    right, _ = rows_source("r5", [(1,)], ["b"])
    with pytest.raises(PlanError, match="left schema"):
        JoinNode(left, right, (("nope", "b"),))
    with pytest.raises(PlanError, match="right schema"):
        JoinNode(left, right, (("a", "nope"),))


def test_new_nodes_serialize_roundtrip() -> None:
    base = ParamNode(schema=("a", "b"))
    nodes = [
        DistinctNode(base),
        SortNode(base, (("a", True), ("b", False))),
        LimitNode(base, 7),
        JoinNode(
            ParamNode(schema=("l",)), ParamNode(schema=("r",)), (("l", "r"),)
        ),
    ]
    for node in nodes:
        restored = pickle.loads(pickle.dumps(node))
        assert restored == node
        assert restored.schema == node.schema
        assert restored.label() == node.label()
