"""Physical algebra: plan nodes, the central plan creator and interpreter.

The central plan creator turns a calculus query into a left-deep chain of
apply (γ) operators (paper Figs 6 and 10) ordered by binding dependencies
under a heuristic cost model that treats web-service operations as
expensive.  The interpreter evaluates plans as asynchronous row streams
over a kernel; parallel operators (``FF_APPLYP`` / ``AFF_APPLYP``) are
delegated to the handler installed by :mod:`repro.parallel`.
"""

from repro.algebra.expressions import (
    ColExpr,
    ConcatExpr,
    ConstExpr,
    RowExpr,
    compile_expr,
    expr_from_calculus,
    render_expr,
)
from repro.algebra.plan import (
    AFFApplyNode,
    ApplyNode,
    FFApplyNode,
    FilterNode,
    MapNode,
    ParamNode,
    PlanFunction,
    PlanNode,
    ProjectNode,
    SingletonNode,
)
from repro.algebra.central import create_central_plan
from repro.algebra.interpreter import ExecutionContext, PullChain, compile_plan
from repro.algebra.cost import CostModel, estimate_plan

__all__ = [
    "ColExpr",
    "ConcatExpr",
    "ConstExpr",
    "RowExpr",
    "compile_expr",
    "expr_from_calculus",
    "render_expr",
    "AFFApplyNode",
    "ApplyNode",
    "FFApplyNode",
    "FilterNode",
    "MapNode",
    "ParamNode",
    "PlanFunction",
    "PlanNode",
    "ProjectNode",
    "SingletonNode",
    "create_central_plan",
    "ExecutionContext",
    "PullChain",
    "compile_plan",
    "CostModel",
    "estimate_plan",
]
