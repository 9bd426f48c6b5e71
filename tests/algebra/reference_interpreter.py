"""The recursive plan walker the compiled pull chain replaced — kept here,
and only here, as the oracle ``test_compiled_plan_oracle.py`` holds
:func:`repro.algebra.interpreter.compile_plan` to.

``iterate_plan`` evaluates a plan tree one row at a time through a stack of
async generators, re-resolving functions and re-compiling expressions on
every execution.  :func:`oracle_chain` wraps it in the ``PullChain`` shape
(one row per chunk, never ``single``) so it can stand in for a compiled
plan anywhere one runs: at the coordinator and, patched over
``repro.parallel.process.compile_plan``, inside every child.
"""

from __future__ import annotations

from typing import Any, AsyncIterator, Callable

from repro.algebra.expressions import compile_expr
from repro.algebra.interpreter import ExecutionContext, PullChain
from repro.algebra.plan import (
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
    PlanNode,
    ProjectNode,
    SingletonNode,
    SortNode,
    UnionNode,
)
from repro.fdb.functions import FunctionKind
from repro.util.errors import PlanError

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def oracle_chain(node: PlanNode) -> PullChain:
    """``node`` evaluated by the walker, shaped like a compiled plan."""

    async def chunks(ctx, param_row):
        async for row in iterate_plan(node, ctx, param_row):
            yield (row,)

    return PullChain(chunks, False)


async def iterate_plan(
    node: PlanNode,
    ctx: ExecutionContext,
    param_row: tuple | None = None,
) -> AsyncIterator[tuple]:
    """Yield the rows of ``node``.

    ``param_row`` binds the :class:`ParamNode` leaf when executing a plan
    function's body for one parameter tuple.
    """
    if isinstance(node, SingletonNode):
        yield ()
        return

    if isinstance(node, ParamNode):
        if param_row is None:
            raise PlanError("param node outside a plan-function call")
        if len(param_row) != len(node.schema):
            raise PlanError(
                f"parameter tuple {param_row!r} does not match schema {node.schema}"
            )
        yield tuple(param_row)
        return

    if isinstance(node, ApplyNode):
        argument_fns = [
            compile_expr(argument, node.child.schema) for argument in node.arguments
        ]
        function = ctx.functions.resolve(node.function)
        async for row in iterate_plan(node.child, ctx, param_row):
            arguments = [fn(row) for fn in argument_fns]
            if function.kind is FunctionKind.OWF:
                out_rows = await function.implementation.call(ctx, arguments)
            else:
                result = function.implementation(*arguments)
                out_rows = result if function.returns_stream else [(result,)]
            for out_row in out_rows:
                out_tuple = tuple(out_row)
                if len(out_tuple) != len(node.out_columns):
                    raise PlanError(
                        f"function {function.name!r} returned a row of width "
                        f"{len(out_tuple)}, expected {len(node.out_columns)}"
                    )
                yield row + out_tuple
        return

    if isinstance(node, MapNode):
        expression_fn = compile_expr(node.expression, node.child.schema)
        async for row in iterate_plan(node.child, ctx, param_row):
            yield row + (expression_fn(row),)
        return

    if isinstance(node, FilterNode):
        left_fn = compile_expr(node.left, node.child.schema)
        right_fn = compile_expr(node.right, node.child.schema)
        comparator = _COMPARATORS[node.op]
        async for row in iterate_plan(node.child, ctx, param_row):
            try:
                keep = comparator(left_fn(row), right_fn(row))
            except TypeError as error:
                raise PlanError(f"filter {node.label()} failed: {error}") from error
            if keep:
                yield row
        return

    if isinstance(node, ProjectNode):
        item_fns = [
            compile_expr(expression, node.child.schema)
            for _, expression in node.items
        ]
        async for row in iterate_plan(node.child, ctx, param_row):
            yield tuple(fn(row) for fn in item_fns)
        return

    if isinstance(node, DistinctNode):
        seen: set[tuple] = set()
        async for row in iterate_plan(node.child, ctx, param_row):
            if row not in seen:
                seen.add(row)
                yield row
        return

    if isinstance(node, SortNode):
        rows = [row for row in await collect_rows(node.child, ctx, param_row)]
        positions = [
            (node.child.schema.index(column), ascending)
            for column, ascending in node.keys
        ]
        # Stable multi-key sort: apply keys right-to-left.
        for position, ascending in reversed(positions):
            rows.sort(key=lambda row: row[position], reverse=not ascending)
        for row in rows:
            yield row
        return

    if isinstance(node, LimitNode):
        if node.count == 0:
            return
        emitted = 0
        source = iterate_plan(node.child, ctx, param_row)
        try:
            async for row in source:
                yield row
                emitted += 1
                if emitted >= node.count:
                    break
        finally:
            # Stop consuming: propagate GeneratorExit down the chain so
            # parallel operators cancel their input pumps.
            await source.aclose()
        return

    if isinstance(node, AggregateNode):
        # Streaming hash aggregation: one accumulator row per key, groups
        # emitted in first-seen order.  A global aggregate (no keys) emits
        # exactly one row even over empty input (COUNT(*) = 0, others NULL).
        item_fns = [
            (kind, compile_expr(expression, node.child.schema))
            for _, kind, expression in node.items
        ]
        groups: dict[tuple, list] = {}
        key_indexes = [i for i, (kind, _) in enumerate(item_fns) if kind == "key"]
        async for row in iterate_plan(node.child, ctx, param_row):
            values = [fn(row) for _, fn in item_fns]
            key = tuple(values[i] for i in key_indexes)
            accumulators = groups.get(key)
            if accumulators is None:
                groups[key] = [
                    _agg_init(kind, value)
                    for (kind, _), value in zip(item_fns, values)
                ]
            else:
                for i, ((kind, _), value) in enumerate(zip(item_fns, values)):
                    accumulators[i] = _agg_step(kind, accumulators[i], value)
        if not groups and not key_indexes:
            groups[()] = [_agg_empty(kind) for kind, _ in item_fns]
        for accumulators in groups.values():
            yield tuple(
                _agg_final(kind, accumulator)
                for (kind, _), accumulator in zip(item_fns, accumulators)
            )
        return

    if isinstance(node, UnionNode):
        # Disjunctive branches run concurrently — their service calls
        # overlap — and rows are emitted in branch order, so the stream is
        # deterministic regardless of which branch finishes first.  The
        # planner puts a DistinctNode above for set semantics.
        tasks = [
            ctx.kernel.spawn(
                collect_rows(branch, ctx, param_row), name=f"union-{i}"
            )
            for i, branch in enumerate(node.inputs)
        ]
        for task in tasks:
            for row in await task.join():
                yield row
        return

    if isinstance(node, JoinNode):
        # Evaluate both independent inputs concurrently — their service
        # calls overlap in time — then hash-join.
        left_task = ctx.kernel.spawn(
            collect_rows(node.left, ctx, param_row), name="join-left"
        )
        right_task = ctx.kernel.spawn(
            collect_rows(node.right, ctx, param_row), name="join-right"
        )
        left_rows = await left_task.join()
        right_rows = await right_task.join()
        left_positions = [node.left.schema.index(l) for l, _ in node.conditions]
        right_positions = [node.right.schema.index(r) for _, r in node.conditions]
        table: dict[tuple, list[tuple]] = {}
        for row in right_rows:
            key = tuple(row[p] for p in right_positions)
            table.setdefault(key, []).append(row)
        for row in left_rows:
            key = tuple(row[p] for p in left_positions)
            for match in table.get(key, ()):
                yield row + match
        return

    if isinstance(node, (FFApplyNode, AFFApplyNode)):
        if ctx.acquire_pool is None:
            raise PlanError(
                f"plan contains {node.label()} but the execution context has "
                "no parallel handler; use the parallel executor"
            )
        source = iterate_plan(node.child, ctx, param_row)
        pool = await ctx.acquire_pool(node, ctx)
        async for row in pool.run(source):
            yield row
        return

    raise PlanError(f"cannot interpret plan node {node!r}")


def _agg_init(kind: str, value: Any) -> Any:
    """First-row accumulator for one aggregate column."""
    if kind in ("key", "sum", "min", "max"):
        return value
    if kind == "count":
        return 1
    return [value, 1]  # avg: running (sum, count)


def _agg_step(kind: str, accumulator: Any, value: Any) -> Any:
    if kind == "key":
        return accumulator
    if kind == "count":
        return accumulator + 1
    if kind == "sum":
        return accumulator + value
    if kind == "min":
        return value if value < accumulator else accumulator
    if kind == "max":
        return value if value > accumulator else accumulator
    accumulator[0] += value
    accumulator[1] += 1
    return accumulator


def _agg_final(kind: str, accumulator: Any) -> Any:
    if kind == "avg" and accumulator is not None:
        return accumulator[0] / accumulator[1]
    return accumulator


def _agg_empty(kind: str) -> Any:
    """Global-aggregate result over zero rows: COUNT is 0, the rest NULL."""
    return 0 if kind == "count" else None


async def collect_rows(
    node: PlanNode, ctx: ExecutionContext, param_row: tuple | None = None
) -> list[tuple]:
    """Run a plan to completion and return all rows."""
    rows = []
    async for row in iterate_plan(node, ctx, param_row):
        rows.append(row)
    return rows
