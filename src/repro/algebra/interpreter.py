"""Plan interpreter: evaluates plan trees as asynchronous row streams.

Rows flow as plain tuples.  Web-service calls (OWF applies) suspend on the
kernel through the service broker, which is where all virtual time is
spent; pure operators (map, filter, project) are free, matching the
paper's cost assumption that web-service operations dominate.

``FF_APPLYP``/``AFF_APPLYP`` nodes are executed by the *parallel handler*
installed in the context by :mod:`repro.parallel.executor`; a context
without one (a central-only execution) rejects parallel plans explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Optional

from repro.algebra.expressions import compile_expr
from repro.cache import CacheConfig, CallCache
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
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.runtime.base import Kernel
from repro.services.broker import CallRecorder, ServiceBroker
from repro.util.errors import PlanError
from repro.util.trace import TraceLog

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class ExecutionContext:
    """Everything a plan needs to run under one kernel."""

    kernel: Kernel
    broker: ServiceBroker
    functions: FunctionRegistry
    parallel_handler: Optional[
        Callable[[PlanNode, AsyncIterator[tuple], "ExecutionContext"], AsyncIterator[tuple]]
    ] = None
    trace: TraceLog = field(default_factory=TraceLog)
    # Transient-fault policy for web-service calls: a retriable
    # ServiceFault is retried up to `retries` times, sleeping
    # `retry_backoff` model seconds between attempts.
    retries: int = 0
    retry_backoff: float = 0.5
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
    # Per-process web-service call cache (repro.cache); None disables
    # memoization and reproduces the uncached call path exactly.  Child
    # processes get their own empty cache — the paper's children are
    # separate processes with no shared memory.
    cache: Optional[CallCache] = None
    # Every cache created for this query (coordinator + children), shared
    # across derived contexts so the coordinator can aggregate counters.
    cache_registry: list = field(default_factory=list)
    # Per-query statistics sink mirrored by the broker; None leaves the
    # broker's own (global) counters as the only record, which is the
    # one-query-per-broker seed behaviour.
    call_recorder: Optional[CallRecorder] = None
    # Engine-scoped multi-query sharing tier
    # (repro.engine.shared.SharedCallCache); None — the default and the
    # only value outside a sharing-enabled QueryEngine — keeps the
    # transport path bit-for-bit seed-identical.  Typed loosely because
    # the engine layer sits above this module.  Propagates to child
    # processes via `for_process` (dataclasses.replace).
    shared: Optional[object] = None
    # Shared mutable counter for unique process names across the query.
    _name_counter: list = field(default_factory=lambda: [0])
    # Span recorder (repro.obs).  NULL_RECORDER is a shared no-op whose
    # `enabled` flag gates every instrumentation site, keeping the traced-off
    # execution fingerprint identical to the seed.  `obs_span` is the id of
    # the span enclosing whatever this context is currently executing (the
    # query root on the coordinator, the per-call span inside a child).
    obs: NullRecorder = NULL_RECORDER
    obs_span: int = -1
    # Remote-placement hook (repro.parallel.placement.Placement), set by
    # a kernel that shards child processes across OS workers.  None — the
    # default everywhere outside a ProcessKernel — keeps spawning local
    # and the execution fingerprint seed-identical.  Typed loosely
    # because the placement layer sits above this module.
    placement: Optional[object] = None

    def next_process_name(self) -> str:
        self._name_counter[0] += 1
        return f"q{self._name_counter[0]}"

    def install_cache(self, config: CacheConfig | None) -> None:
        """Attach a call cache to this process (no-op when disabled)."""
        if config is None or not config.enabled:
            return
        self.cache = CallCache(self.kernel, config, name=self.process_name)
        self.cache_registry.append(self.cache)

    def for_process(self, name: str) -> "ExecutionContext":
        """A context for a child process: shared world, private pools."""
        from dataclasses import replace

        ctx = replace(self, process_name=name, pools={})
        if self.cache is not None:
            ctx.cache = self.cache.clone_for(name)
            self.cache_registry.append(ctx.cache)
        return ctx


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
        if ctx.parallel_handler is None:
            raise PlanError(
                f"plan contains {node.label()} but the execution context has "
                "no parallel handler; use the parallel executor"
            )
        source = iterate_plan(node.child, ctx, param_row)
        async for row in ctx.parallel_handler(node, source, ctx):
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
