"""Plan interpreter: plan trees compiled once into pull chains.

Rows flow as plain tuples.  Web-service calls (OWF applies) suspend on the
kernel through the service broker, which is where all virtual time is
spent; pure operators (map, filter, project) are free, matching the
paper's cost assumption that web-service operations dominate.
:func:`compile_plan` runs once per cached plan and per plan-function
install: every node becomes an async generator of row chunks, with map,
filter and project fused into the node below them; a chain over the plan
function's parameter (a child's per-call body, such as Query1's PF2) is
one coroutine that returns its one chunk.

``FF_APPLYP``/``AFF_APPLYP`` nodes run through the pool that
:func:`repro.parallel.pools.install_pools` hands out via ``ctx.acquire_pool``; a
context without one (a central-only execution) rejects parallel plans
explicitly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from typing import Any, AsyncIterator, Awaitable, Callable, NamedTuple, Optional

from repro.algebra.expressions import ColExpr, compile_expr
from repro.cache import MISS, Footprint
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
from repro.fdb.functions import FunctionKind, FunctionRegistry
from repro.obs.run import QueryRun
from repro.runtime.base import Kernel
from repro.services.broker import ServiceBroker
from repro.util.errors import PlanError

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


@dataclass
class ExecutionContext:
    """Everything one query process needs to run plans under one kernel.

    Per-query state — trace, counters, policies, call memo, span
    recorder — lives in ``run``, which every process of the query holds
    by reference; the other fields belong to this process.
    """

    kernel: Kernel
    broker: ServiceBroker
    functions: FunctionRegistry
    acquire_pool: Optional[Callable[[PlanNode, "ExecutionContext"], Awaitable[Any]]] = None
    # Name of the query process this context belongs to (q0 = coordinator);
    # child processes run under a derived context with their own name.
    process_name: str = "q0"
    # Operator pools owned by this process, keyed by the plan node's stable
    # `node_id` (assigned at plan-build time; id(node) is unsafe because a
    # collected node's address can be reused).  Each FF_APPLYP/AFF_APPLYP
    # node instance keeps one persistent pool of child processes across
    # plan-function invocations (Sec. III: children receive their plan
    # function once, before execution).
    pools: dict = field(default_factory=dict)
    run: QueryRun = field(default_factory=QueryRun)
    # Id of the span enclosing whatever this process is currently
    # executing (the query root on the coordinator, the per-call span
    # inside a child); -1 when untraced.
    obs_span: int = -1
    # Remote-placement hook (repro.parallel.placement.Placement), set by
    # a kernel that shards child processes across OS workers.  None — the
    # default everywhere outside a ProcessKernel — keeps spawning local
    # and the execution fingerprint seed-identical.  Typed loosely
    # because the placement layer sits above this module.
    placement: Optional[object] = None
    # The memo footprint of the plan-function call this (child) process
    # is serving, when the query memoizes; None on the coordinator and
    # when it does not.  Every memo answer beneath the call folds in.
    footprint: Optional[Footprint] = None

    def for_process(self, name: str) -> "ExecutionContext":
        """A context for a child process: same run, private pools, and no
        pool acquirer until the child installs its own."""
        return replace(
            self, process_name=name, pools={}, footprint=None, acquire_pool=None
        )


async def round_trip(
    ctx: ExecutionContext,
    uri: str,
    service: str,
    operation: str,
    arguments: list,
    obs_span: int = -1,
    footprint: Footprint | None = None,
) -> tuple[Any, str]:
    """One web-service call as it leaves the query tree.

    Returns ``(rows, outcome)`` — the answer as the SOAP codec decoded it,
    a tuple of row tuples — the outcome one of
    :data:`~repro.cache.HIT`, :data:`~repro.cache.MISS` (a real round
    trip) or :data:`~repro.cache.COLLAPSED`.  Inside an OS worker without
    services of its own, the call goes to the coordinator (``run.remote``),
    whose round trip answers it and sends the outcome back.  Anywhere else
    the address space's memo answers it when the query memoizes
    (``run.memo``); a miss goes straight to the broker, which records the
    call into the run's :class:`~repro.services.broker.CallRecorder` and
    fails it when the query's service-fault stream (``run.service_faults``)
    draws a fault.  The memo entry that answers the call (or, forwarded,
    the coordinator's) folds into ``footprint``.
    """
    run = ctx.run
    if run.remote is not None:
        return await run.remote.call(uri, service, operation, arguments, obs_span, footprint)
    if run.memo is None:
        return await _dispatch(ctx, uri, service, operation, arguments, obs_span), MISS
    return await run.memo.call(
        (uri, service, operation, tuple(arguments)),
        partial(_dispatch, ctx, uri, service, operation, arguments, obs_span),
        run.cache_stats,
        run.ttl,
        footprint,
    )


def _dispatch(ctx, uri, service, operation, arguments, obs_span):
    """The round-trip coroutine of one call the memo did not answer."""
    run = ctx.run
    faults = run.service_faults
    return ctx.broker.call(
        uri, service, operation, arguments, recorder=run.call_recorder,
        obs=run.obs if run.obs.enabled else None, obs_span=obs_span,
        fault=faults is not None and faults.random() < run.faults.service_fault_probability,
    )


class PullChain(NamedTuple):
    """``chunks(ctx, param_row)`` streams one execution as chunks: the rows
    one await made available, a lazy iterable the consumer finishes before
    pulling again, so an error or a LIMIT stops on the row it would one row
    at a time.  A ``single`` chain yields one chunk at most, then ends.
    A chain over the plan function's parameter (a leaf, or one apply over
    it) has ``first(ctx, param_row)``: an awaitable of that one chunk,
    from which its ``chunks`` is derived."""

    chunks: Callable
    single: bool
    first: Optional[Callable] = None

    async def rows(self, ctx: ExecutionContext, param_row: tuple | None = None) -> list:
        rows: list[tuple] = []
        async for chunk in self.chunks(ctx, param_row):
            rows.extend(chunk)
        return rows


def compile_plan(node: PlanNode) -> PullChain:
    """``node`` as a :class:`PullChain`, compiled on its first use.  Only
    its structure is bound: functions are resolved once per execution."""
    if node._pull_chain is None:
        node._pull_chain = _compile(node, _same)
    return node._pull_chain


def _same(rows):
    return rows


def _fuse(node: PlanNode, above: Callable) -> tuple[PlanNode, Callable]:
    """The first node at or below ``node`` that is no map, filter or
    project, and ``above`` with their steps composed under it."""
    while isinstance(node, (MapNode, FilterNode, ProjectNode)):
        step = _step(node)
        above = step if above is _same else (lambda rows, a=above, s=step: a(s(rows)))
        node = node.child
    return node, above


def _single(first: Callable) -> PullChain:
    """The chain whose one chunk ``first`` returns."""
    return PullChain(partial(_first_chunk, first), True, first)


async def _first_chunk(first: Callable, ctx, param_row):
    yield await first(ctx, param_row)


async def _ready(chunk):
    """An awaitable of a chunk that is already there."""
    return chunk


async def _called(ctx, function, arguments, row, node: ApplyNode, above: Callable):
    """The output chunk of an apply's input row whose OWF call must wait."""
    out_rows = await function.implementation.call(ctx, arguments)
    return above(_widen(row, out_rows, node, function.name))


def _leaf(node: PlanNode, above: Callable, param_row: tuple | None):
    """The one chunk of a singleton or parameter leaf."""
    if isinstance(node, SingletonNode):
        return above(((),))
    if param_row is None:
        raise PlanError("param node outside a plan-function call")
    if len(param_row) != len(node.schema):
        raise PlanError(
            f"parameter tuple {param_row!r} does not match schema {node.schema}"
        )
    return above((tuple(param_row),))


def _compile(node: PlanNode, above: Callable) -> PullChain:
    """``node`` as a :class:`PullChain`, with ``above`` — the map, filter
    and project steps over it, composed — applied to every chunk."""
    node, above = _fuse(node, above)
    if isinstance(node, (SingletonNode, ParamNode)):
        return _single(lambda ctx, param_row: _ready(_leaf(node, above, param_row)))

    if isinstance(node, ApplyNode):
        argument_fns = [compile_expr(a, node.child.schema) for a in node.arguments]

        def step(ctx, function, row):
            """An awaitable of one input row's output chunk: ready at once
            — a helping function's rows, an OWF's memo hit — unless an OWF
            call must be awaited."""
            arguments = [fn(row) for fn in argument_fns]
            if function.kind is FunctionKind.OWF:
                out_rows = function.implementation.hit(ctx, arguments)
                if out_rows is None:
                    return _called(ctx, function, arguments, row, node, above)
            else:
                result = function.implementation(*arguments)
                out_rows = result if function.returns_stream else [(result,)]
            return _ready(above(_widen(row, out_rows, node, function.name)))

        below, below_above = _fuse(node.child, _same)
        if isinstance(below, (SingletonNode, ParamNode)):
            # One call at most, over the (at most one) leaf row.
            def first(ctx, param_row):
                function = ctx.functions.resolve(node.function)
                for row in _leaf(below, below_above, param_row):
                    return step(ctx, function, row)
                return _ready(())

            return _single(first)

        child = _compile(below, below_above)

        async def apply(ctx, param_row):
            function = ctx.functions.resolve(node.function)
            async for chunk in child.chunks(ctx, param_row):
                for row in chunk:
                    yield await step(ctx, function, row)

        return PullChain(apply, False)

    children = node.children()
    child = _compile(children[0], _same) if len(children) == 1 else None

    if isinstance(node, (FFApplyNode, AFFApplyNode)):
        async def parallel(ctx, param_row):
            if ctx.acquire_pool is None:
                raise PlanError(
                    f"plan contains {node.label()} but the execution context has "
                    "no pool acquirer; install one with repro.parallel.pools.install_pools"
                )
            pool = await ctx.acquire_pool(node, ctx)
            async for row in pool.run(_rows(child.chunks, ctx, param_row)):
                yield above((row,))

        return PullChain(parallel, False)

    if isinstance(node, DistinctNode):
        async def distinct(ctx, param_row):
            seen: set[tuple] = set()
            async for chunk in child.chunks(ctx, param_row):
                yield above(row for row in chunk if not (row in seen or seen.add(row)))

        return PullChain(distinct, child.single)

    if isinstance(node, LimitNode):
        async def limit(ctx, param_row):
            remaining = node.count
            if not remaining:
                return
            source = child.chunks(ctx, param_row)
            try:
                async for chunk in source:
                    rows = list(islice(chunk, remaining))  # never a row past it
                    remaining -= len(rows)
                    yield above(rows)
                    if not remaining:
                        # Cut short: which rows made it depends on the
                        # order they came in, so the plan-function call
                        # this runs in has no bag to memoize.
                        if ctx.footprint is not None:
                            ctx.footprint.poison()
                        break
            finally:
                # Stop consuming: propagate GeneratorExit down the chain so
                # parallel operators cancel their input pumps.
                await source.aclose()

        return PullChain(limit, False)

    if isinstance(node, SortNode):
        keys = [(node.child.schema.index(c), ascending) for c, ascending in node.keys]

        async def sort(ctx, param_row):
            rows = await child.rows(ctx, param_row)
            # Stable multi-key sort: apply keys right-to-left.
            for position, ascending in reversed(keys):
                rows.sort(key=operator.itemgetter(position), reverse=not ascending)
            yield above(rows)

        return PullChain(sort, True)

    if isinstance(node, AggregateNode):
        # Streaming hash aggregation: one accumulator row per key, groups
        # emitted in first-seen order.  A global aggregate (no keys) emits
        # exactly one row even over empty input (COUNT(*) = 0, others NULL).
        item_fns = [(kind, compile_expr(e, node.child.schema)) for _, kind, e in node.items]
        key_indexes = [i for i, (kind, _) in enumerate(item_fns) if kind == "key"]

        async def aggregate(ctx, param_row):
            groups: dict[tuple, list] = {}
            async for chunk in child.chunks(ctx, param_row):
                for row in chunk:
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
            yield above(
                tuple(_agg_final(kind, acc) for (kind, _), acc in zip(item_fns, accumulators))
                for accumulators in groups.values()
            )

        return PullChain(aggregate, True)

    if isinstance(node, UnionNode):
        # Disjunctive branches run concurrently — their service calls
        # overlap — and rows are emitted in branch order, so the stream is
        # deterministic regardless of which branch finishes first.  The
        # planner puts a DistinctNode above for set semantics.
        branches = [compile_plan(branch) for branch in node.inputs]

        async def union(ctx, param_row):
            tasks = [
                ctx.kernel.spawn(branch.rows(ctx, param_row), name=f"union-{i}")
                for i, branch in enumerate(branches)
            ]
            try:
                for task in tasks:
                    yield above(await task.join())
            finally:
                _cancel_unfinished(tasks)  # a cancelled or closed consumer

        return PullChain(union, False)

    if isinstance(node, JoinNode):
        # Evaluate both independent inputs concurrently — their service
        # calls overlap in time — then hash-join.
        left, right = compile_plan(node.left), compile_plan(node.right)
        left_key = operator.itemgetter(*[node.left.schema.index(l) for l, _ in node.conditions])
        right_key = operator.itemgetter(*[node.right.schema.index(r) for _, r in node.conditions])

        async def join(ctx, param_row):
            left_task = ctx.kernel.spawn(left.rows(ctx, param_row), name="join-left")
            right_task = ctx.kernel.spawn(right.rows(ctx, param_row), name="join-right")
            try:
                left_rows = await left_task.join()
                right_rows = await right_task.join()
            finally:
                _cancel_unfinished((left_task, right_task))
            table: dict = {}
            for row in right_rows:
                table.setdefault(right_key(row), []).append(row)
            yield above(
                row + match for row in left_rows for match in table.get(left_key(row), ())
            )

        return PullChain(join, True)

    raise PlanError(f"cannot interpret plan node {node!r}")


def _cancel_unfinished(tasks) -> None:
    """Cancel the branch tasks an operator leaves behind unfinished."""
    for task in tasks:
        if not task.done:
            task.cancel()


def _step(node: PlanNode) -> Callable:
    """The lazy per-chunk function of a map, filter or project."""
    schema = node.child.schema
    if isinstance(node, MapNode):
        expression = compile_expr(node.expression, schema)
        return lambda rows: (row + (expression(row),) for row in rows)
    if isinstance(node, FilterNode):
        left, right = compile_expr(node.left, schema), compile_expr(node.right, schema)
        compare = _COMPARATORS[node.op]

        def keep(row):
            try:
                return compare(left(row), right(row))
            except TypeError as error:
                raise PlanError(f"filter {node.label()} failed: {error}") from error

        return partial(filter, keep)
    items = [compile_expr(expression, schema) for _, expression in node.items]
    if len(items) > 1 and all(isinstance(e, ColExpr) for _, e in node.items):
        return partial(map, operator.itemgetter(*[schema.index(e.name) for _, e in node.items]))
    return lambda rows: (tuple([item(row) for item in items]) for row in rows)


def _widen(row: tuple, out_rows, node: ApplyNode, name: str):
    for out_row in out_rows:
        out_tuple = tuple(out_row)
        if len(out_tuple) != len(node.out_columns):
            raise PlanError(
                f"function {name!r} returned a row of width "
                f"{len(out_tuple)}, expected {len(node.out_columns)}"
            )
        yield row + out_tuple


async def _rows(chunks: Callable, ctx, param_row) -> AsyncIterator[tuple]:
    async for chunk in chunks(ctx, param_row):
        for row in chunk:
            yield row


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
