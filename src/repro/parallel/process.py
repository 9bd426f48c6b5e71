"""The child query process.

A query process is spawned by an ``FF_APPLYP``/``AFF_APPLYP`` operator in
its parent.  It first receives its plan function definition (once, before
execution — Sec. III), installs it, then loops: receive a parameter tuple,
execute the plan function for it, stream the result tuples back, send an
end-of-call message, repeat — the end-of-call riding on the last result
tuple when the compiled body is ``single``.  A ``Shutdown`` message ends
the process, cascading to any children of nested operators via the
pools of its context.

Failure semantics follow the query's ``on_error`` (``ctx.run.on_error``):

* ``fail`` (the paper's behavior, the default): the first ``ReproError``
  of a call is reported as a :class:`ChildError` and the process exits —
  the parent aborts the query.
* ``retry``/``skip``: a failed call is reported as a :class:`CallFailed`
  (sequence number, parameter row, error text) and the process *keeps
  serving*; the parent decides what happens to the row.  To make
  redelivery safe, a call's result rows are buffered child-side and only
  shipped after the call succeeded — a failed call therefore contributes
  no output, so re-running it cannot duplicate rows.

The query's ``FaultInjection`` (``ctx.run.faults``) optionally injects
deterministic per-call failures and process crashes; a crash escapes the
receive loop entirely, and the parent's death watcher notices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.interpreter import ExecutionContext, PullChain, compile_plan
from repro.cache import Footprint
from repro.parallel.costs import ProcessCosts
from repro.parallel.messages import (
    CallFailed,
    ChildError,
    EndOfCall,
    ParamBatch,
    ParamTuple,
    ResultBatch,
    ResultTuple,
    ShipPlanFunction,
    Shutdown,
)
from repro.runtime.base import Channel
from repro.util.errors import ReproError


@dataclass
class ChildEndpoints:
    """The channels wiring one child into its parent's operator."""

    name: str
    downlink: Channel  # parent -> this child
    uplink: Channel  # this child -> parent (shared inbox)


class _CallRunner:
    """Executes the plan function inside one child, one call at a time."""

    def __init__(
        self,
        ctx: ExecutionContext,
        costs: ProcessCosts,
        endpoints: ChildEndpoints,
        body: PullChain,
    ) -> None:
        self.ctx = ctx
        self.costs = costs
        self.endpoints = endpoints
        self.body = body
        self._enclosing = -1  # ctx.obs_span outside the running call
        self._faults = None  # the query injection self.injector draws for
        self.injector = None

    def _follow(self, faults) -> None:
        """Draw this child's faults from the stream of (``faults``, child
        name): a run replays, a re-homed child follows its new query's."""
        if faults != self._faults:
            self.injector = (
                faults.injector_for(self.endpoints.name)
                if faults is not None and faults.active()
                else None
            )
        self._faults = faults

    def _begin_span(self, seq: int, parent_span: int, started: float) -> int:
        """Open the per-call span and make it the context's enclosing span
        so the web-service spans of the call (and any nested operator's
        invocation spans) nest under it.  ``ctx.run`` is read per call,
        not captured: a warm pool leased into a new query re-homes it
        via ``ChildPool.rebind()``."""
        ctx = self.ctx
        if not ctx.run.obs.enabled:
            return -1
        span = ctx.run.obs.start(
            f"call#{seq}",
            category="call",
            parent=parent_span,
            process=self.endpoints.name,
            at=started,
            seq=seq,
        )
        self._enclosing = ctx.obs_span
        ctx.obs_span = span
        return span

    def _end_span(self, span: int, rows: int, **error) -> None:
        if span == -1:
            return
        self.ctx.obs_span = self._enclosing
        self.ctx.run.obs.finish(span, at=self.ctx.kernel.now(), rows=rows, **error)

    async def serve(self, seq: int, param_row: tuple, parent_span: int, batch=None) -> bool:
        """Run the plan function for one parameter tuple and report it;
        False when the process must exit.  One coroutine per call: its
        rows, span and end-of-call end with it.  Every row costs
        ``result_tuple``.  Failing fast, a lone ``ParamTuple``'s rows go up
        as produced, a ``single`` body's last one with the end-of-call;
        contained failures buffer them, so a failed call ships nothing
        (redelivery stays exact).  A ``ParamBatch``'s calls leave rows,
        end-of-calls and failure reports in ``batch`` instead.  When the
        query memoizes, the call's memo footprint accumulates in
        ``ctx.footprint`` (one call at a time, so it is this call's) and
        rides its end-of-call.
        """
        ctx, body = self.ctx, self.body
        kernel, run = ctx.kernel, ctx.run
        footprint = ctx.footprint = Footprint() if run.memoizes else None
        name, uplink = self.endpoints.name, self.endpoints.uplink
        cost = self.costs.result_tuple
        fail_fast = run.on_error == "fail"
        streamed = batch is None and fail_fast
        unsent: list[tuple] = []  # every row, or a streamed single body's last
        started = kernel.now()
        span = self._begin_span(seq, parent_span, started)
        rows = 0
        try:
            if run.faults is not self._faults:
                self._follow(run.faults)
            if self.injector is not None:
                self.injector.before_call()
            chunks = None if body.first is not None else body.chunks(ctx, param_row)
            chunk = await (body.first(ctx, param_row) if chunks is None else anext(chunks, None))
            while chunk is not None:
                # One row of look-ahead tells a single body's last row.
                chunk = iter(chunk)
                row = next(chunk, None)
                while row is not None:
                    try:
                        following = next(chunk, None)
                    except Exception:  # the row before a failing one goes first
                        await kernel.sleep(cost)
                        if streamed:
                            uplink.send(ResultTuple(name, row, seq))
                        else:
                            unsent.append(row)
                        raise
                    await kernel.sleep(cost)
                    rows += 1
                    if streamed and (following is not None or not body.single):
                        uplink.send(ResultTuple(name, row, seq))
                    else:
                        unsent.append(row)
                    row = following
                chunk = None if chunks is None else await anext(chunks, None)
        except ReproError as error:
            self._end_span(span, rows, error=str(error))
            if fail_fast:
                # Seed semantics: a batch's failing call still sends its
                # partial rows — stamped with its seq, like any streamed
                # row — then the error; then the process exits.
                reports = [ResultTuple(name, row, seq) for row in unsent if batch is not None]
                reports.append(ChildError(name, str(error), seq))
            else:
                reports = [CallFailed(name, seq, param_row, str(error))]
            if batch is None:
                for report in reports:
                    uplink.send(report)
            else:
                batch[2].extend(reports)
            return not fail_fast
        except Exception as error:  # a crash too: its span still closes
            self._end_span(span, rows, error=str(error))
            raise
        self._end_span(span, rows)
        end_of_call = EndOfCall(
            name, seq, rows, service_time=kernel.now() - started,
            footprint=None if footprint is None else footprint.value,
        )
        if batch is not None:
            batch[0].extend(unsent)
            batch[1].append(end_of_call)
            return True
        for row in unsent[:-1]:
            uplink.send(ResultTuple(name, row, seq))
        uplink.send(ResultTuple(name, unsent[-1], seq, end_of_call) if unsent else end_of_call)
        return True

    async def serve_batch(self, message: ParamBatch) -> bool:
        """Drain a batch as successive calls; False when the process must exit.

        The result rows are buffered and go back up in one ResultBatch
        (one message transit) with per-call EndOfCall metadata.
        """
        batch: tuple[list, list, list] = ([], [], [])  # rows, end-of-calls, failures
        serving = True
        for offset, param_row in enumerate(message.rows):
            serving = await self.serve(message.seq_start + offset, param_row, message.span, batch)
            if not serving:
                break
        rows, end_of_calls, failures = batch
        uplink = self.endpoints.uplink
        if end_of_calls:
            uplink.send(ResultBatch(self.endpoints.name, tuple(rows), tuple(end_of_calls)))
        for report in failures:  # sent behind the batch
            uplink.send(report)
        return serving


async def child_main(
    ctx: ExecutionContext,
    costs: ProcessCosts,
    endpoints: ChildEndpoints,
) -> None:
    """Body of a query process (one level of the tree of Fig 4).  On exit
    it closes its nested operators' pools — without waiting when closed
    from outside (shutdown, garbage collection): nothing may be awaited."""
    from repro.parallel.pools import install_pools

    # A child's pools are never registry pools, so its acquirer holds only
    # the costs — not the context of the query that spawned it.
    install_pools(ctx, costs)
    kernel = ctx.kernel
    await kernel.sleep(costs.startup)

    first = await endpoints.downlink.recv()
    if isinstance(first, Shutdown):
        return
    if not isinstance(first, ShipPlanFunction):
        endpoints.uplink.send(
            ChildError(endpoints.name, f"expected a plan function, got {first!r}")
        )
        return
    plan_function = first.plan_function
    body = compile_plan(plan_function.body)  # one chain per shipped object
    await kernel.sleep(costs.install)
    if ctx.run.obs.enabled:
        ctx.run.obs.instant(
            "install",
            category="event",
            parent=first.span,
            process=endpoints.name,
            at=kernel.now(),
            plan_function=plan_function.name,
        )

    runner = _CallRunner(ctx, costs, endpoints, body)
    try:
        serving = True
        while serving:
            message = await endpoints.downlink.recv()
            if isinstance(message, Shutdown):
                break
            if isinstance(message, ParamTuple):
                serving = await runner.serve(message.seq, message.row, message.span)
            elif isinstance(message, ParamBatch):
                serving = await runner.serve_batch(message)
    except GeneratorExit:
        for pool in ctx.pools.values():
            pool.stop()  # the close below then has nothing to wait for
        raise
    finally:
        for pool in list(ctx.pools.values()):
            await pool.close()
        if ctx.run.obs.enabled:
            ctx.run.obs.instant("process_exit", process=endpoints.name, at=kernel.now())
