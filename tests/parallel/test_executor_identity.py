"""Stable per-operator identity for the pool acquirer's persistent pools.

``ExecutionContext.pools`` used to be keyed on ``id(node)``; a
garbage-collected node's id can be reused by the allocator, silently
aliasing another operator's pool.  Plan nodes now carry a ``node_id``
assigned at construction, which also survives the pickle round trip
that ships a plan function to a worker process.
"""

import pickle
import re

import pytest

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import (
    AdaptationParams,
    AFFApplyNode,
    ApplyNode,
    FFApplyNode,
    ParamNode,
    PlanFunction,
    SingletonNode,
)
from repro.parallel.costs import ProcessCosts
from repro.parallel.pools import install_pools
from repro.runtime.simulated import SimKernel
from repro.util.errors import PlanError


def _plan_function() -> PlanFunction:
    body = ApplyNode(
        child=ParamNode(schema=("x",)),
        function="echo",
        arguments=(),
        out_columns=("y",),
    )
    return PlanFunction("PFX", ("x",), body)


def _ff_node(fanout: int = 2) -> FFApplyNode:
    return FFApplyNode(
        child=ParamNode(schema=("x",)), plan_function=_plan_function(), fanout=fanout
    )


def test_node_ids_are_unique_and_prefixed() -> None:
    ff_a, ff_b = _ff_node(), _ff_node()
    aff = AFFApplyNode(
        child=ParamNode(schema=("x",)),
        plan_function=_plan_function(),
        params=AdaptationParams(),
    )
    assert re.fullmatch(r"ff-\d+", ff_a.node_id)
    assert re.fullmatch(r"ff-\d+", ff_b.node_id)
    assert re.fullmatch(r"aff-\d+", aff.node_id)
    assert len({ff_a.node_id, ff_b.node_id, aff.node_id}) == 3


def test_node_id_does_not_affect_equality() -> None:
    ff_a, ff_b = _ff_node(), _ff_node()
    assert ff_a == ff_b  # structurally identical plans compare equal
    assert ff_a.node_id != ff_b.node_id


def _roundtrip(node):
    return pickle.loads(pickle.dumps(node))


def test_node_id_survives_a_pickle_round_trip() -> None:
    ff = _ff_node()
    restored = _roundtrip(ff)
    assert restored.node_id == ff.node_id
    assert restored == ff
    aff = AFFApplyNode(
        child=ParamNode(schema=("x",)),
        plan_function=_plan_function(),
        params=AdaptationParams(p=3),
    )
    assert _roundtrip(aff).node_id == aff.node_id


def test_pools_keyed_per_operator_not_per_object_id() -> None:
    kernel = SimKernel()
    ctx = ExecutionContext(kernel=kernel, broker=None, functions=None)
    install_pools(ctx, ProcessCosts())

    def acquire(node):
        return kernel.run(ctx.acquire_pool(node, ctx))

    # Two structurally equal operators must get two distinct pools...
    node_a, node_b = _ff_node(), _ff_node()
    pool_a = acquire(node_a)
    pool_b = acquire(node_b)
    assert pool_a is not pool_b
    assert set(ctx.pools) == {node_a.node_id, node_b.node_id}
    # ...while the same operator keeps its persistent pool.
    assert acquire(node_a) is pool_a
    # And an unpickled copy of the plan (code shipping) still maps to
    # the same pool: identity rides on node_id, not the object.
    restored = _roundtrip(node_a)
    assert acquire(restored) is pool_a


def test_pool_for_rejects_non_parallel_nodes() -> None:
    kernel = SimKernel()
    ctx = ExecutionContext(kernel=kernel, broker=None, functions=None)
    install_pools(ctx, ProcessCosts())
    with pytest.raises(PlanError, match="not a parallel operator"):
        kernel.run(ctx.acquire_pool(SingletonNode(), ctx))
