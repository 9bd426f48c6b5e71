"""Tests for plan node construction rules and pickling.

Pickling matters beyond persistence: it is how ``FF_APPLYP`` ships a plan
function to a child in a worker process, so a round trip must give back
an equal plan with the same parallel-operator ids, and must work after
the plan ran (its compiled chains stay behind).
"""

import pickle

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, WSMED, QueryOptions
from repro.algebra.expressions import (
    ColExpr,
    ConcatExpr,
    ConstExpr,
    compile_expr,
)
from repro.algebra.plan import (
    AdaptationParams,
    AFFApplyNode,
    AggregateNode,
    ApplyNode,
    DistinctNode,
    FFApplyNode,
    FilterNode,
    JoinNode,
    LimitNode,
    MapNode,
    ParamNode,
    PlanFunction,
    ProjectNode,
    SingletonNode,
    SortNode,
    UnionNode,
    walk,
)
from repro.util.errors import PlanError

from tests.helpers import make_world


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def every_node(plan):
    """Every node of ``plan``, the bodies of its plan functions included."""
    stack = [plan]
    while stack:
        for node in walk(stack.pop()):
            yield node
            if isinstance(node, (FFApplyNode, AFFApplyNode)):
                stack.append(node.plan_function.body)


def operator_ids(plan) -> list[str]:
    parallel = (FFApplyNode, AFFApplyNode)
    return [node.node_id for node in every_node(plan) if isinstance(node, parallel)]


def test_expr_compile_const_col_concat() -> None:
    schema = ("a", "b")
    assert compile_expr(ConstExpr(7), schema)(("x", "y")) == 7
    assert compile_expr(ColExpr("b"), schema)(("x", "y")) == "y"
    concat = ConcatExpr((ColExpr("a"), ConstExpr(", "), ColExpr("b")))
    assert compile_expr(concat, schema)(("Atlanta", "GA")) == "Atlanta, GA"


def test_expr_unknown_column_raises() -> None:
    with pytest.raises(PlanError, match="not in the input schema"):
        compile_expr(ColExpr("missing"), ("a",))


def test_expr_serialization_roundtrip() -> None:
    expr = ConcatExpr((ColExpr("city"), ConstExpr(", "), ColExpr("st")))
    assert roundtrip(expr) == expr


def test_apply_schema_concatenates() -> None:
    node = ApplyNode(
        child=ParamNode(schema=("x",)),
        function="f",
        arguments=(ColExpr("x"),),
        out_columns=("y", "z"),
    )
    assert node.schema == ("x", "y", "z")


def test_apply_duplicate_column_rejected() -> None:
    with pytest.raises(PlanError, match="duplicate"):
        ApplyNode(
            child=ParamNode(schema=("x",)),
            function="f",
            arguments=(),
            out_columns=("x",),
        )


def test_filter_unknown_op_rejected() -> None:
    with pytest.raises(PlanError, match="operator"):
        FilterNode(SingletonNode(), "~", ConstExpr(1), ConstExpr(1))


def test_project_duplicate_name_rejected() -> None:
    with pytest.raises(PlanError, match="duplicate"):
        ProjectNode(SingletonNode(), (("a", ConstExpr(1)), ("a", ConstExpr(2))))


def test_map_duplicate_column_rejected() -> None:
    with pytest.raises(PlanError):
        MapNode(ParamNode(schema=("x",)), ConstExpr(1), "x")


def test_ff_apply_schema_mismatch_rejected() -> None:
    pf = PlanFunction("PF1", ("a",), ParamNode(schema=("a",)))
    with pytest.raises(PlanError, match="does not match"):
        FFApplyNode(child=ParamNode(schema=("b",)), plan_function=pf, fanout=2)


def test_ff_apply_fanout_validated() -> None:
    pf = PlanFunction("PF1", ("a",), ParamNode(schema=("a",)))
    with pytest.raises(PlanError, match="fanout"):
        FFApplyNode(child=ParamNode(schema=("a",)), plan_function=pf, fanout=0)


def test_adaptation_params_validation() -> None:
    with pytest.raises(PlanError):
        AdaptationParams(p=0)
    with pytest.raises(PlanError):
        AdaptationParams(threshold=0.0)
    assert roundtrip(AdaptationParams(p=3)) == AdaptationParams(p=3)


def test_central_plan_survives_a_pickle_round_trip() -> None:
    world = make_world()
    for sql in (QUERY1_SQL, QUERY2_SQL):
        plan = world.central_plan(sql)
        restored = roundtrip(plan)
        assert restored == plan
        assert restored.schema == plan.schema


def _every_kind() -> list:
    param = ParamNode(schema=("a", "b"))
    apply = ApplyNode(param, "f", (ColExpr("a"), ConstExpr(2)), ("c",))
    function = PlanFunction("PF1", ("a", "b"), apply)
    return [
        SingletonNode(),
        param,
        apply,
        MapNode(param, ConcatExpr((ColExpr("a"), ConstExpr(", "))), "m"),
        FilterNode(param, "<>", ColExpr("a"), ConstExpr(1.5)),
        ProjectNode(param, (("x", ColExpr("b")),)),
        DistinctNode(param),
        SortNode(param, (("a", True), ("b", False))),
        LimitNode(param, 3),
        AggregateNode(param, (("a", "key", ColExpr("a")), ("n", "count", ConstExpr(1)))),
        UnionNode((param, ParamNode(schema=("a", "b")))),
        JoinNode(ParamNode(schema=("l",)), ParamNode(schema=("r",)), (("l", "r"),)),
        FFApplyNode(param, function, fanout=3),
        AFFApplyNode(param, function, AdaptationParams(p=3, drop_stage=True)),
    ]


def _node_classes():
    from repro.algebra import plan

    return [
        value
        for value in vars(plan).values()
        if isinstance(value, type)
        and issubclass(value, plan.PlanNode)
        and value is not plan.PlanNode
    ]


def test_every_node_kind_survives_a_pickle_round_trip() -> None:
    kinds = _every_kind()
    assert {type(node) for node in kinds} == set(_node_classes())
    for node in kinds:
        restored = roundtrip(node)
        assert restored == node
        assert restored.schema == node.schema
        assert restored.label() == node.label()
        if isinstance(node, (FFApplyNode, AFFApplyNode)):
            assert restored.node_id == node.node_id
            assert restored.plan_function.memo_signature == node.plan_function.memo_signature


@pytest.mark.parametrize(
    "sql, options",
    [
        (QUERY1_SQL, QueryOptions(mode="parallel", fanouts=[5, 4])),
        (QUERY2_SQL, QueryOptions(mode="adaptive")),
    ],
    ids=["query1", "query2-adaptive"],
)
def test_an_executed_plan_pickles_without_its_compiled_chains(sql, options) -> None:
    system = WSMED(profile="fast")
    system.import_all()
    plan = system.sql(sql, options=options).plan
    compiled = [node for node in every_node(plan) if node._pull_chain is not None]
    assert compiled, "running the plan compiles its plan-function bodies"
    restored = roundtrip(plan)
    assert restored == plan
    assert all("_pull_chain" not in vars(node) for node in every_node(restored))
    assert operator_ids(restored) == operator_ids(plan)


def test_plan_function_roundtrip() -> None:
    body = ApplyNode(
        child=ParamNode(schema=("st1",)),
        function="GetInfoByState",
        arguments=(ColExpr("st1"),),
        out_columns=("zstr",),
    )
    pf = PlanFunction("PF3", ("st1",), body)
    restored = roundtrip(pf)
    assert restored == pf
    assert restored.signature() == pf.signature()
    assert restored.result_schema == ("st1", "zstr")


def test_aff_node_roundtrip() -> None:
    pf = PlanFunction("PF1", ("a",), ParamNode(schema=("a",)))
    node = AFFApplyNode(
        child=ParamNode(schema=("a",)),
        plan_function=pf,
        params=AdaptationParams(p=2, drop_stage=True),
    )
    restored = roundtrip(node)
    assert isinstance(restored, AFFApplyNode)
    assert restored.params.drop_stage is True
    assert restored.node_id == node.node_id
