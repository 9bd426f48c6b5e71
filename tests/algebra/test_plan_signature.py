"""A plan function's identity is its dataclass structure.

``PlanFunction.memo_signature`` keys the call memo and, through
``repro.engine.pools.pool_fingerprint``, the warm pools of a resident
engine.  Two compilations of one query must agree on both (a sharing
engine matches them), a non-sharing engine must still tell them apart by
their nested operator ids, and any change to the structure — a nested
fanout, a filter constant, an adaptation parameter — must split them.
"""

from dataclasses import replace

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, WSMED, QueryOptions
from repro.algebra.expressions import ColExpr, ConstExpr
from repro.algebra.plan import (
    AdaptationParams,
    AFFApplyNode,
    ApplyNode,
    FFApplyNode,
    FilterNode,
    ParamNode,
    PlanFunction,
    walk,
)
from repro.engine.pools import pool_fingerprint
from repro.parallel.costs import ProcessCosts

COSTS = ProcessCosts()


@pytest.fixture(scope="module")
def wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def parallel_nodes(plan) -> list:
    """Every FF/AFF node of ``plan``, nested ones too, in walk order."""
    found, stack = [], [plan]
    while stack:
        for node in walk(stack.pop(0)):
            if isinstance(node, (FFApplyNode, AFFApplyNode)):
                found.append(node)
                stack.append(node.plan_function.body)
    return found


def fingerprints(node, structural: bool) -> int:
    return pool_fingerprint(node, COSTS, structural=structural)


@pytest.mark.parametrize(
    "sql, options",
    [
        (QUERY1_SQL, QueryOptions(mode="parallel", fanouts=[5, 4])),
        (QUERY2_SQL, QueryOptions(mode="adaptive")),
    ],
    ids=["query1", "query2-adaptive"],
)
def test_two_compilations_share_a_signature(wsmed, sql, options) -> None:
    first = parallel_nodes(wsmed.plan(sql, options=options))
    second = parallel_nodes(wsmed.plan(sql, options=options))
    assert len(first) == len(second) >= 2
    for a, b in zip(first, second):
        assert a.node_id != b.node_id
        assert a.plan_function == b.plan_function
        assert repr(a.plan_function) == repr(b.plan_function)
        assert a.plan_function.memo_signature == b.plan_function.memo_signature
        assert fingerprints(a, structural=True) == fingerprints(b, structural=True)
        if a.plan_function.operator_ids:
            # A non-sharing engine keeps the compilations' trees apart.
            assert fingerprints(a, structural=False) != fingerprints(b, structural=False)


def _signature_and_fingerprints(node) -> tuple:
    return (
        node.plan_function.memo_signature,
        fingerprints(node, structural=True),
        fingerprints(node, structural=False),
    )


def _differ(a, b) -> bool:
    pairs = zip(_signature_and_fingerprints(a), _signature_and_fingerprints(b))
    return all(x != y for x, y in pairs)


def test_a_nested_fanout_splits_the_signature(wsmed) -> None:
    def top(fanouts):
        plan = wsmed.plan(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=fanouts))
        return parallel_nodes(plan)[0]

    assert _differ(top([5, 4]), top([5, 3]))


def _filtering(constant) -> FFApplyNode:
    """An FF node whose plan function nests an FF over a filter on ``constant``."""
    inner_body = FilterNode(ParamNode(schema=("x", "a")), "=", ColExpr("a"), ConstExpr(constant))
    inner = PlanFunction("PF2", ("x", "a"), inner_body)
    outer_body = FFApplyNode(
        ApplyNode(ParamNode(schema=("x",)), "f", (ColExpr("x"),), ("a",)), inner, fanout=2
    )
    outer = PlanFunction("PF1", ("x",), outer_body)
    return FFApplyNode(ParamNode(schema=("x",)), outer, fanout=3)


def test_a_filter_constant_splits_the_signature() -> None:
    first, second = _filtering("GA"), _filtering("GA")
    assert first.plan_function.memo_signature == second.plan_function.memo_signature
    assert fingerprints(first, structural=True) == fingerprints(second, structural=True)
    assert _differ(first, _filtering("AL"))


def test_an_adaptation_parameter_splits_the_signature(wsmed) -> None:
    def top(params):
        options = QueryOptions(mode="adaptive", adaptation=params)
        return parallel_nodes(wsmed.plan(QUERY2_SQL, options=options))[0]

    default = AdaptationParams()
    for changed in (
        replace(default, p=3),
        replace(default, threshold=0.3),
        replace(default, drop_stage=True),
        replace(default, max_fanout=8),
    ):
        assert _differ(top(default), top(changed))
