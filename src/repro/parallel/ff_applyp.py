"""``FF_APPLYP`` — First Finished Apply in Parallel (Sec. III.A).

The operator keeps a persistent pool of child query processes.  On first
use it spawns ``fanout`` children and ships each the plan function; then,
per invocation, it streams parameter tuples to idle children (one tuple
per child in the first round, then one new tuple per end-of-call — the
first-finished policy) and emits result rows the moment any child delivers
them.  The adaptive pool (:mod:`repro.parallel.aff_applyp`) is this pool
plus monitoring cycles and add/drop stages.

The input stream is drained by a pump task into the operator's inbox, so
one event loop serves input arrival, results, and end-of-call messages
without needing a select primitive.

With ``ProcessCosts.batch_size > 1`` the pool micro-batches: tuples
dispatched to a child wait in its buffer and leave as one
:class:`ParamBatch` when ``batch_size`` rows have accumulated (*size*),
when adaptation drops the child (*drop_stage*), or when the parameter
stream ends (*stream_end*), so nothing is stranded.  A batch pays
``message_latency`` once plus the per-row ``ship_param``/``result_tuple``
CPU: fewer round trips, not free work.  With ``batch_size=1`` every
tuple leaves at once as a :class:`ParamTuple`, the paper's protocol.

On top of the paper's protocol sits a pool-level fault-tolerance layer
(the query's ``ctx.run.on_error``):

* every dispatched parameter row is tracked in the target child's
  ``inflight`` map (sequence number -> row) until its end-of-call;
* a :class:`CallFailed` report resolves the row per policy — redeliver it
  to another child (``retry``), drop and count it (``skip``), or abort
  (``fail``, the seed default);
* a per-child death watcher turns an unexpected process exit into a
  :class:`ChildDied` message; under ``retry``/``skip`` the pool spawns a
  replacement child (re-shipping the plan function) and writes off the
  dead child's in-flight rows per the same policy;
* a per-pool circuit breaker escalates to ``fail`` once the invocation's
  failure rate crosses :data:`BREAKER_THRESHOLD`;
* an invocation that stops early — it failed, or its consumer closed the
  generator (``LIMIT``) — resets the per-invocation dispatch state on the
  way out of :meth:`ChildPool.run`; the persistent pool's next invocation
  drops the late messages, told apart by epoch (input) and by sequence
  number (everything a child sends).

With the defaults (``on_error="fail"``, no fault injection) none of this
changes a single message or trace event relative to the paper protocol.

When the query memoizes (``ctx.run.memo``), the pool also memoizes its
plan function: an input tuple whose bag the memo holds is answered from
it without a dispatch, and a call that ends with a memo footprint
(``EndOfCall.footprint``) has its rows stored as that tuple's bag.  A
pool inside a child folds its calls' footprints, and poisons with any
failure or early stop, into the footprint of the call the child serves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AsyncIterator

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import PlanFunction
from repro.cache import stable_hash
from repro.parallel.costs import ProcessCosts
from repro.parallel.messages import (
    CallFailed,
    ChildDied,
    ChildError,
    EndOfCall,
    InputAvailable,
    InputExhausted,
    InputFailed,
    ParamBatch,
    ParamTuple,
    ResultBatch,
    ResultTuple,
    ShipPlanFunction,
    Shutdown,
)
from repro.parallel.process import ChildEndpoints, child_main
from repro.runtime.base import ProcessHandle
from repro.util.errors import PlanError, ReproError

#: Per-pool circuit breaker: once at least BREAKER_MIN_CALLS calls of one
#: invocation have resolved and more than BREAKER_THRESHOLD of them
#: failed, the pool escalates to ``fail`` regardless of ``on_error`` (a
#: mostly-dead service should abort the query, not grind through
#: redeliveries).
BREAKER_THRESHOLD = 0.5
BREAKER_MIN_CALLS = 20


@dataclass(eq=False)
class _Child:
    """One pool slot.  ``eq=False`` keeps comparison by identity: the pool
    mixes ``in``/``remove`` (which would use ``__eq__``) with ``is`` checks,
    and value equality between distinct slots would corrupt ``_idle``."""

    endpoints: ChildEndpoints
    handle: ProcessHandle
    outstanding: int = 0  # parameter tuples shipped but not end-of-called
    added_by_adaptation: bool = False
    # Rows shipped to this child and not yet resolved: seq -> parameter
    # row.  Source of truth for redelivery after a failure or death, and
    # for telling current messages from stale ones.
    inflight: dict[int, tuple] = field(default_factory=dict)
    # The derived context the child process runs under.  ``child_main``
    # holds the same object, so pointing its ``run`` at a new query
    # re-homes a warm child — see :meth:`ChildPool.rebind`.
    ctx: ExecutionContext | None = None


@dataclass
class _Invocation:
    """State of one :meth:`ChildPool.run` — one parameter stream."""

    epoch: int  # stamps this invocation's pump messages
    in_flight: int = 0  # rows read from the input and not yet resolved
    input_done: bool = False
    # Failure accounting (redelivery budgets + circuit breaker).
    fail_counts: dict[str, int] = field(default_factory=dict)
    ok: int = 0
    failed: int = 0


class ChildPool:
    """Pool of child query processes below one FF/AFF operator instance;
    as itself, the ``FF_APPLYP`` pool of a fixed, chosen ``fanout``."""

    def __init__(
        self,
        ctx: ExecutionContext,
        plan_function: PlanFunction,
        costs: ProcessCosts,
        fanout: int,
    ) -> None:
        self.ctx = ctx
        self.plan_function = plan_function
        self.costs = costs
        self.fanout = fanout
        self.inbox = ctx.kernel.channel(
            f"{ctx.process_name}/{plan_function.name}/inbox",
            latency=costs.message_latency,
        )
        self.children: list[_Child] = []
        self._idle: deque[_Child] = deque()
        self._by_name: dict[str, _Child] = {}
        # Children dropped by adaptation that still have in-flight calls:
        # their remaining messages are current (must resolve), but they
        # take no new work.
        self._detached: dict[str, _Child] = {}
        self._pending: deque[tuple] = deque()
        self._seq = 0
        self._rotation = 0  # next child index under round-robin dispatch
        self._closed = False
        self._epoch = 0  # invocation counter; stamps pump messages
        # Micro-batching: child name -> rows dispatched to it and not yet
        # shipped; a key exists only while its list is non-empty.
        self._batch_size = costs.batch_size
        self._buffers: dict[str, list[tuple]] = {}
        # Tuples one child may hold: ``prefetch`` batches.
        self._capacity = costs.prefetch * costs.batch_size
        # Whether dispatch may assign several tuples to one child: under
        # the pipelined protocol (prefetch > 1), and whenever batching is
        # on — a child must be able to hold a whole batch at prefetch 1.
        self._pipelined = costs.prefetch > 1 or costs.batch_size > 1
        # Observability (repro.obs): id of the current invocation's span.
        # Stamped onto every downlink message so child-side call spans can
        # link back across the process boundary; -1 = tracing off.
        self._inv_span = -1
        # Stamped by repro.engine.pools.PoolRegistry.acquire when a
        # resident engine keeps this tree warm: its fingerprint.
        self.registry_key: int | None = None
        # When the running invocation's query memoizes: each in-flight
        # call's rows so far (seq -> rows), stored as its bag at its
        # end-of-call.  None otherwise.
        self._bags: dict[int, list] | None = None

    def event(self, kind: str, *, category: str = "event", **attrs) -> None:
        """Record an instant of this pool on a traced run, under the
        current invocation's span (``plan_function`` first, then ``attrs``
        in the order given)."""
        obs = self.ctx.run.obs
        if obs.enabled:
            obs.instant(
                kind,
                category=category,
                parent=self._inv_span,
                process=self.ctx.process_name,
                at=self.ctx.kernel.now(),
                plan_function=self.plan_function.name,
                **attrs,
            )

    # -- child lifecycle ---------------------------------------------------------

    async def spawn_children(self, count: int, *, adaptive: bool = False) -> None:
        """Start ``count`` new children and ship them the plan function.

        The parent pays the per-child shipping cost serially; children
        start up and install concurrently ("ships in parallel").

        With a placement layer attached (``ctx.placement``, set by a
        multi-process kernel) the child runs inside an OS worker: its
        downlink/handle are remote proxies and ``ctx`` stays ``None``
        (the real context lives in the worker), but every pool-side
        protocol step below is identical.
        """
        kernel = self.ctx.kernel
        placement = self.ctx.placement
        for _ in range(count):
            name = self.ctx.run.next_process_name()
            if placement is not None:
                endpoints, handle = placement.spawn_child(self, name)
                child_ctx = None
            else:
                endpoints, handle, child_ctx = self._spawn_local(name)
            child = _Child(
                endpoints=endpoints,
                handle=handle,
                added_by_adaptation=adaptive,
                ctx=child_ctx,
            )
            self.children.append(child)
            self._by_name[name] = child
            kernel.spawn(self._watch_child(name, handle), name=f"{name}-watch")
            await kernel.sleep(self.costs.ship_function)
            self._ship_function(child)

    def _spawn_local(self, name: str):
        """Start a child as a task of this kernel, under a derived context."""
        kernel = self.ctx.kernel
        endpoints = ChildEndpoints(
            name=name,
            downlink=kernel.channel(
                f"{name}/downlink", latency=self.costs.message_latency
            ),
            uplink=self.inbox,
        )
        child_ctx = self.ctx.for_process(name)
        handle = kernel.spawn(child_main(child_ctx, self.costs, endpoints), name=name)
        return endpoints, handle, child_ctx

    def _ship_function(self, child: _Child) -> None:
        """Ship the plan function and make the child available for work."""
        child.endpoints.downlink.send(
            ShipPlanFunction(self.plan_function, span=self._inv_span)
        )
        self.ctx.run.tree.spawned(self.ctx.process_name, self.plan_function.name)
        self.event(
            "spawn", child=child.endpoints.name, adaptive=child.added_by_adaptation
        )
        self._make_idle(child)

    async def _watch_child(self, name: str, handle: ProcessHandle) -> None:
        """Death watcher: report an unexpected child exit to the inbox.

        The child cannot announce its own crash, so the watcher joins the
        handle from outside.  Orderly exits (pool close, adaptation drop)
        are filtered out by ``_closed`` here and by the name lookup in the
        ``ChildDied`` handler.
        """
        reason = ""
        try:
            await handle.join()
        except BaseException as error:  # noqa: BLE001 - report any death
            text = str(error)
            reason = f"{type(error).__name__}: {text}" if text else type(error).__name__
        if not self._closed:
            self.inbox.send(ChildDied(name, reason))

    def _make_idle(self, child: _Child) -> None:
        """End-of-call bookkeeping: the child can take more work."""
        child.outstanding = max(0, child.outstanding - 1)
        if self._pipelined:
            # Refill up to capacity.  Without batching one end-of-call
            # frees exactly one slot, so this takes one pending tuple
            # just like the seed protocol; with batching the child must
            # be topped up to a full batch or its buffer would sit below
            # the size trigger with nothing in flight to trigger it.
            while self._pending and child.outstanding < self._capacity:
                self._dispatch_now(child, self._take_pending(child))
                if self._batch_size == 1:
                    break
            return
        if self._pending:
            self._dispatch_now(child, self._take_pending(child))
        else:
            self._idle.append(child)

    def _dispatch_now(self, child: _Child, row: tuple) -> None:
        """Hand one tuple (ship cost already paid) to ``child``: sent at
        once without batching, else buffered until a flush trigger."""
        child.outstanding += 1
        if self._batch_size == 1:
            self._send_single(child, row)
            return
        buffer = self._buffers.setdefault(child.endpoints.name, [])
        buffer.append(row)
        if len(buffer) >= self._batch_size:
            self._flush(child, "size")

    def _send_single(self, child: _Child, row: tuple) -> None:
        self._seq += 1
        child.inflight[self._seq] = row
        child.endpoints.downlink.send(ParamTuple(self._seq, row, span=self._inv_span))
        self.ctx.run.message_stats.param_tuples += 1

    def _flush(self, child: _Child, trigger: str) -> None:
        """Send whatever is buffered for ``child`` as one message."""
        name = child.endpoints.name
        buffer = self._buffers.pop(name, None)
        if buffer is None:
            return
        stats = self.ctx.run.message_stats
        if len(buffer) == 1:
            # A batch of one needs no batch framing.
            self._send_single(child, buffer[0])
        else:
            seq_start = self._seq + 1
            self._seq += len(buffer)
            for offset, row in enumerate(buffer):
                child.inflight[seq_start + offset] = row
            child.endpoints.downlink.send(
                ParamBatch(seq_start, tuple(buffer), span=self._inv_span)
            )
            stats.param_batches += 1
            stats.batched_params += len(buffer)
        stats.flushes[trigger] = stats.flushes.get(trigger, 0) + 1
        self.event("batch_flush", child=name, size=len(buffer), trigger=trigger)

    def drop_child(self, child: _Child) -> None:
        """Take ``child`` out of service and shut it down (an adaptation
        drop stage).  Its partial batch goes out ahead of the shutdown
        (the downlink is FIFO), or its rows would be lost; its in-flight
        calls are still current and resolve while it stays findable."""
        self._flush(child, "drop_stage")
        self.children.remove(child)
        name = child.endpoints.name
        del self._by_name[name]
        if child.inflight:
            self._detached[name] = child
        # The child finishes any in-flight call, then reads the shutdown
        # and tears down its own subtree.
        child.endpoints.downlink.send(Shutdown("dropped by adaptation"))

    def _affinity_target(self, row: tuple) -> _Child:
        """The child a tuple hashes to under ``hash_affinity`` dispatch."""
        return self.children[stable_hash(row) % len(self.children)]

    def _take_pending(self, child: _Child) -> tuple:
        """Pop the pending tuple this child should run next.

        Under ``hash_affinity``, a tuple whose affinity target is this
        child is preferred, so keys keep landing on the child that has
        them cached; otherwise (and for all other policies) FIFO order.
        """
        if self.costs.dispatch == "hash_affinity" and len(self.children) > 1:
            for index, row in enumerate(self._pending):
                if self._affinity_target(row) is child:
                    del self._pending[index]
                    return row
        return self._pending.popleft()

    async def _dispatch(self, row: tuple) -> None:
        """Ship one parameter tuple (parent pays the shipping cost)."""
        await self.ctx.kernel.sleep(self.costs.ship_param)
        if self.costs.dispatch == "round_robin":
            # Ablation baseline: deal tuples out in fixed rotation without
            # waiting for end-of-call; a slow child accumulates a queue.
            child = self.children[self._rotation % len(self.children)]
            self._rotation += 1
            self._dispatch_now(child, row)
            return
        if self.costs.dispatch == "hash_affinity" and self.children:
            # Affinity placement: route the tuple to the child its key
            # hashes to, so identical keys land on one child.  A
            # saturated target falls back to the policies below —
            # first-finished placement beats a growing queue.
            target = self._affinity_target(row)
            if target.outstanding < self._capacity:
                # Test membership first: a failed deque.remove builds its
                # error message from the slot's (large) repr.
                if target in self._idle:
                    self._idle.remove(target)
                self._dispatch_now(target, row)
                return
        if self._pipelined:
            # Pipelined dispatch: the least-loaded child with room takes
            # the tuple (first-finished generalized to depth > 1).
            candidates = [
                child for child in self.children if child.outstanding < self._capacity
            ]
            if candidates:
                self._dispatch_now(
                    min(candidates, key=lambda child: child.outstanding), row
                )
            else:
                self._pending.append(row)
            return
        while self._idle:
            child = self._idle.popleft()
            if child not in self.children:
                continue  # dropped while idle
            self._dispatch_now(child, row)
            return
        self._pending.append(row)

    # -- failure handling --------------------------------------------------------

    def _find_child(self, name: str) -> _Child | None:
        """Active or detached child by name; None once fully evicted."""
        child = self._by_name.get(name)
        if child is not None:
            return child
        return self._detached.get(name)

    def _retire_detached(self, name: str) -> None:
        """Forget a detached child once its last in-flight call resolved."""
        child = self._detached.get(name)
        if child is not None and not child.inflight:
            del self._detached[name]

    def _evict(self, name: str) -> list[tuple[int, tuple]]:
        """Remove a dead/failed child from every pool structure.

        Returns the rows the child still owed: its in-flight calls (with
        their sequence numbers) plus any rows buffered for it (seq ``-1``
        — never shipped).  Without the eviction, a later dispatch to the
        dead child would hang the query forever.
        """
        child = self._by_name.pop(name, None) or self._detached.pop(name, None)
        if child is None:
            return []
        if child in self.children:
            self.children.remove(child)
        if child in self._idle:
            self._idle.remove(child)
        lost = list(child.inflight.items())
        child.inflight.clear()
        child.outstanding = 0
        lost.extend((-1, row) for row in self._buffers.pop(name, ()))
        return lost

    def _register_failure(
        self, inv: _Invocation, row: tuple, *, child: str, seq: int, error: str
    ) -> str:
        """Account one failed call and decide its fate per ``on_error``.

        Returns ``"retry"`` (caller redelivers the row) or ``"skip"``
        (caller writes the row off); raises :class:`ReproError` under the
        ``fail`` policy, an exhausted redelivery budget, or an open
        circuit breaker.
        """
        run = self.ctx.run
        policy = run.on_error
        faults = run.fault_stats
        faults.failed_calls += 1
        if self.ctx.footprint is not None:
            self.ctx.footprint.poison()  # faults are never memoized
        if policy == "skip":
            faults.skipped_rows += 1
        inv.failed += 1
        self.event("call_failed", child=child, seq=seq, policy=policy, error=error)
        if policy == "fail":
            raise ReproError(f"query process {child} failed: {error}")
        resolved = inv.ok + inv.failed
        if (
            resolved >= BREAKER_MIN_CALLS
            and inv.failed / resolved > BREAKER_THRESHOLD
        ):
            faults.breaker_trips += 1
            self.event("breaker_open", failed=inv.failed, resolved=resolved)
            raise ReproError(
                f"circuit breaker open for {self.plan_function.name}: "
                f"{inv.failed} of {resolved} calls failed"
            )
        if policy == "retry":
            key = repr(row)
            attempt = inv.fail_counts.get(key, 0) + 1
            inv.fail_counts[key] = attempt
            if attempt > self.costs.max_redeliveries:
                raise ReproError(
                    f"parameter row {row!r} failed {attempt} times "
                    f"(max_redeliveries={self.costs.max_redeliveries}): {error}"
                )
            faults.redeliveries += 1
            self.event("redeliver", row=key, attempt=attempt, failed_child=child)
            return "retry"
        return "skip"

    async def _settle_owed(
        self,
        inv: _Invocation,
        child: str,
        owed: list[tuple[int, tuple]],
        error: str,
        report: CallFailed | None = None,
    ) -> None:
        """Redeliver or write off the rows a failed or dead child owed."""
        for seq, row in owed:
            action = self._register_failure(
                inv, row, child=child, seq=seq, error=error
            )
            if report is not None:
                await self.on_call_failed(report)
            if action == "retry":
                await self._dispatch(row)
            else:
                inv.in_flight -= 1

    async def _respawn(self, died: str, reason: str, lost_rows: int) -> None:
        """Replace a dead child (re-shipping the plan function)."""
        await self.spawn_children(1)
        self.ctx.run.fault_stats.respawns += 1
        self.event(
            "respawn",
            died=died,
            reason=reason,
            replacement=self.children[-1].endpoints.name,
            lost_rows=lost_rows,
        )

    def _reset_invocation_state(self) -> None:
        """Clear per-invocation dispatch state after an invocation stopped
        early (it failed, or its consumer closed the generator).

        The pool would otherwise keep stale ``_pending`` rows, nonzero
        ``outstanding`` counts, a stale ``_idle`` deque and buffered
        batches — and pools persist across invocations, so the *next*
        parameter stream through the same operator would replay stale
        tuples or under-dispatch.  Synchronous on purpose: it must be
        safe to call from the ``GeneratorExit`` path of an abandoned
        generator.
        """
        self._pending.clear()
        self._buffers.clear()
        if self._bags is not None:
            self._bags.clear()
        for child in self.children:
            child.outstanding = 0
            child.inflight.clear()
        for child in self._detached.values():
            child.inflight.clear()
        self._detached.clear()
        self._idle.clear()
        self._idle.extend(self.children)

    def _dirty(self) -> bool:
        """Leftover per-invocation state from a failed previous run?"""
        return bool(
            self._pending
            or self._detached
            or any(child.outstanding or child.inflight for child in self.children)
        )

    # -- the operator loop ----------------------------------------------------------

    async def run(self, source: AsyncIterator[tuple]) -> AsyncIterator[tuple]:
        """One invocation of the operator over one parameter stream: the
        message loop — receive, hand to the message's handler, repeat —
        until the input is exhausted and every call has resolved.

        The one way an invocation stops early is this generator being
        closed (``LIMIT``) or failing: the pump is cancelled and the
        per-invocation state reset, which leaves the children running
        whatever they were sent.  Their late messages are told from
        current ones by epoch (input) and by sequence number against
        ``inflight`` (results, end-of-calls, failures, child errors) and
        dropped.

        When tracing is on, the whole invocation is wrapped in an
        ``invoke`` span whose id is stamped onto every downlink message
        (``self._inv_span``); the child-side per-call spans use it as
        their parent, which is what links the span tree across the
        process boundary.
        """
        ctx = self.ctx
        obs = ctx.run.obs
        if obs.enabled:
            self._inv_span = obs.start(
                f"invoke:{self.plan_function.name}",
                category="invoke",
                parent=ctx.obs_span,
                process=ctx.process_name,
                at=ctx.kernel.now(),
                plan_function=self.plan_function.name,
                children=len(self.children),
            )
        inv = pump = None
        try:
            inv = await self._begin()
            pump = ctx.kernel.spawn(
                self._pump(source, inv.epoch), name=f"{ctx.process_name}-pump"
            )
            # Per-message lookups, hoisted: no invocation replaces these
            # objects (a rebind re-homes ctx.run, so that is read per row).
            recv, pending = self.inbox.recv, self._pending
            accept_row, resolve_call = self._accept_row, self._resolve_call
            handlers, buffers = self._HANDLERS, self._buffers
            while True:
                if inv.input_done and not pending:
                    # No more rows can join a buffer: release any partial
                    # batches so their end-of-calls can drain in_flight.
                    if buffers:
                        for name in list(buffers):
                            self._flush(self._by_name[name], "stream_end")
                    if inv.in_flight == 0:
                        break
                message = await recv()
                kind = type(message)
                if kind is ResultTuple:
                    row = accept_row(message)
                    if row is not None:
                        ctx.run.message_stats.result_tuples += 1
                        yield row
                    if message.end_of_call is not None:
                        await resolve_call(inv, message.end_of_call)
                elif kind is ResultBatch:
                    async for row in self._replay_batch(inv, message):
                        yield row
                else:
                    handler = handlers.get(kind)
                    if handler is not None:
                        bag = await handler(self, inv, message)
                        if bag is not None:  # a memoized input tuple
                            for row in bag:
                                yield row
        except BaseException:
            # Includes GeneratorExit of an abandoned invocation: leave the
            # persistent pool ready for its next parameter stream.
            if inv is not None and inv.epoch == self._epoch and not self._closed:
                self._reset_invocation_state()
            if ctx.footprint is not None:
                ctx.footprint.poison()  # a cut-short or failed apply
            raise
        finally:
            self._bags = None
            if pump is not None:
                pump.cancel()
            if obs.enabled:
                obs.finish(self._inv_span, at=ctx.kernel.now(), children=len(self.children))
                self._inv_span = -1

    async def _begin(self) -> _Invocation:
        """Start an invocation: the children exist, the previous
        invocation's leftovers are gone, and — when the query memoizes —
        the calls' bags are collected."""
        if self._closed:
            raise PlanError("operator pool used after shutdown")
        if not self.children:
            await self.on_first_use()
        self._epoch += 1
        if self._dirty():
            # Defensive: the previous invocation stopped without running
            # its reset (e.g. its generator was never finalized).
            self._reset_invocation_state()
        if self.ctx.run.memo is not None:
            self._bags = {}
        return _Invocation(epoch=self._epoch)

    async def _pump(self, source: AsyncIterator[tuple], epoch: int) -> None:
        try:
            async for row in source:
                self.inbox.send(InputAvailable(row, epoch))
        except ReproError as error:
            self.inbox.send(InputFailed(str(error), epoch))
            return
        self.inbox.send(InputExhausted(epoch))

    # -- per-message handlers (rows are handed up by the loop itself) -----------------

    async def _on_input_available(self, inv: _Invocation, message: InputAvailable):
        """Dispatch an input tuple — or, when the memo holds its bag,
        return the bag for the loop to yield, sending nothing."""
        if message.epoch != inv.epoch:
            return None  # input of an abandoned invocation
        if self._bags is not None:
            bag = self._memoized(message.row)
            if bag is not None:
                return bag
        inv.in_flight += 1
        await self._dispatch(message.row)
        return None

    async def _on_input_exhausted(self, inv: _Invocation, message: InputExhausted):
        if message.epoch != inv.epoch:
            return
        inv.input_done = True

    async def _on_input_failed(self, inv: _Invocation, message: InputFailed):
        if message.epoch == inv.epoch:
            raise ReproError(message.message)

    def _owner_of(self, child: str, seq: int) -> _Child | None:
        """The slot call ``seq`` is in flight on; None once the call was
        resolved or written off (a message of an abandoned invocation)."""
        # _find_child, inlined: this runs for every result row.
        owner = self._by_name.get(child) or self._detached.get(child)
        if owner is None or seq not in owner.inflight:
            return None
        return owner

    def _accept_row(self, message: ResultTuple) -> tuple | None:
        """The per-row step: hand the row up, unless its call was written
        off."""
        if self._owner_of(message.child, message.seq) is None:
            return None
        if self._bags is not None:
            bag = self._bags.get(message.seq)
            if bag is None:
                self._bags[message.seq] = [message.row]
            else:
                bag.append(message.row)
        return message.row

    async def _resolve_call(self, inv: _Invocation, message: EndOfCall) -> bool:
        """The per-call step: the call is done, its child takes more work.
        False if the call was already written off."""
        owner = self._owner_of(message.child, message.seq)
        if owner is None:
            return False
        row = owner.inflight.pop(message.seq)
        if self._bags is not None or self.ctx.footprint is not None:
            self._remember(inv, row, message)
        self._retire_detached(message.child)
        inv.ok += 1
        inv.in_flight -= 1
        if owner in self.children:
            self._make_idle(owner)
        return True

    def _memoized(self, row: tuple) -> tuple | None:
        """The bag the memo holds for ``row``, or None.  A hit counts the
        calls beneath the bag as call hits, folds them into the footprint
        of the call this process serves, and, traced, records one
        ``plan_hit`` instant carrying that call count."""
        run = self.ctx.run
        key = (self.plan_function.memo_signature, row)
        entry = run.memo.lookup_plan(key, run.cache_stats)
        if entry is None:
            return None
        rows, calls, expires = entry
        if self.ctx.footprint is not None:
            self.ctx.footprint.add(calls, expires)
        self.event("plan_hit", calls=calls)
        return rows

    def _remember(self, inv: _Invocation, row: tuple, message: EndOfCall) -> None:
        """Fold a finished call's footprint into the call this process
        serves, if any, and store its bag under its parameter tuple when
        the query memoizes here — unless the footprint says it must not
        be stored or the row failed before (a redelivery)."""
        footprint = message.footprint
        if inv.fail_counts and repr(row) in inv.fail_counts:
            footprint = None
        if self.ctx.footprint is not None:
            self.ctx.footprint.merge(footprint)
        if self._bags is not None:
            rows = tuple(self._bags.pop(message.seq, ()))
            run = self.ctx.run
            if footprint is not None:
                key = (self.plan_function.memo_signature, row)
                run.memo.store_plan(key, rows, footprint, run.cache_stats)

    async def _on_end_of_call(self, inv: _Invocation, message: EndOfCall):
        if await self._resolve_call(inv, message):
            self.ctx.run.message_stats.end_of_calls += 1

    async def _replay_batch(
        self, inv: _Invocation, message: ResultBatch
    ) -> AsyncIterator[tuple]:
        """Replay a batch as the per-call interleaving of the per-tuple
        protocol: each call's rows, then its end-of-call, in execution
        order — through the same per-row and per-call steps."""
        if self._find_child(message.child) is None:
            return  # whole batch stale (child evicted)
        stats = self.ctx.run.message_stats
        stats.result_batches += 1
        stats.batched_results += len(message.rows)
        cursor = 0
        for end_of_call in message.end_of_calls:
            for row in message.rows[cursor : cursor + end_of_call.rows]:
                accepted = self._accept_row(
                    ResultTuple(message.child, row, end_of_call.seq)
                )
                if accepted is not None:
                    yield accepted
            cursor += end_of_call.rows
            await self._resolve_call(inv, end_of_call)

    async def _on_call_failed(self, inv: _Invocation, message: CallFailed):
        owner = self._owner_of(message.child, message.seq)
        if owner is None:
            return  # failure of a call already written off
        row = owner.inflight.pop(message.seq)
        self._retire_detached(message.child)
        # A retry is redelivered before the failing child's slot is freed,
        # so another child is preferred.
        await self._settle_owed(
            inv, message.child, [(message.seq, row)], message.message, report=message
        )
        if owner in self.children:
            self._make_idle(owner)

    async def _on_child_died(self, inv: _Invocation, message: ChildDied):
        if self._find_child(message.child) is None:
            return  # orderly exit (drop/close) or already evicted
        detached = message.child in self._detached
        owed = self._evict(message.child)
        died = "died" + (f": {message.reason}" if message.reason else "")
        if owed and self.ctx.run.on_error == "fail":
            raise ReproError(f"query process {message.child} {died}")
        if not detached:
            await self._respawn(message.child, message.reason, len(owed))
        await self._settle_owed(inv, message.child, owed, f"query process {died}")

    async def _on_child_error(self, inv: _Invocation, message: ChildError):
        owner = self._find_child(message.child)
        if owner is None:
            return  # already evicted
        current = message.seq < 0 or message.seq in owner.inflight
        detached = message.child in self._detached
        # Even when the error aborts the invocation the dead child must
        # leave the pool structures, or reusing the (persistent) pool
        # would dispatch to a process nobody runs.
        owed = self._evict(message.child)
        if current:
            raise ReproError(
                f"query process {message.child} failed: {message.message}"
            )
        # The failing call belongs to an abandoned invocation, so nothing
        # here failed: replace the child, and send the rows dispatched to
        # it since (it was dead before they arrived) somewhere else.
        if not detached:
            await self._respawn(message.child, message.message, len(owed))
        for _, row in owed:
            await self._dispatch(row)

    _HANDLERS = {
        InputAvailable: _on_input_available,
        InputExhausted: _on_input_exhausted,
        InputFailed: _on_input_failed,
        EndOfCall: _on_end_of_call,
        CallFailed: _on_call_failed,
        ChildDied: _on_child_died,
        ChildError: _on_child_error,
    }

    # -- warm reuse across queries -------------------------------------------------

    def rebind(self, ctx: ExecutionContext) -> None:
        """Re-home this warm pool (and its subtree) into a new query.

        A pool leased from the engine's registry still holds the child
        processes of the query that built it.  ``child_main`` keeps a
        reference to the *same* context object the pool derived at spawn
        time, so pointing that object at the new query's run is all it
        takes for the children's future work to be counted in the new
        query, and to follow its cache setting, policies and injected
        faults.
        """
        self.ctx = ctx
        for child in self.children:
            if child.ctx is None:  # remote: re-homed by the placement below
                continue
            child.ctx.run = ctx.run
            child.ctx.obs_span = ctx.obs_span
            for pool in child.ctx.pools.values():
                pool.rebind(child.ctx)
        if ctx.placement is not None:
            ctx.placement.rebind_pool(self)
        self.on_rebind()

    # -- hooks extended by the adaptive pool -----------------------------------------

    async def on_first_use(self) -> None:
        await self.spawn_children(self.fanout)

    def on_rebind(self) -> None:
        """Per-pool reset when leased into a new query; FF needs none."""

    async def on_call_failed(self, message: CallFailed) -> None:
        """Monitoring hook for failed calls; the plain FF pool ignores it."""

    # -- shutdown ------------------------------------------------------------------

    def stop(self) -> None:
        """:meth:`close` without the wait, for where nothing may be awaited."""
        if self._closed:
            return
        self._closed = True
        # An abandoned query may leave partial batches behind; they are
        # discarded exactly like the per-tuple protocol's pending queue.
        self._buffers.clear()
        for child in self.children:
            child.endpoints.downlink.send(Shutdown())

    async def close(self) -> None:
        """Send shutdown to all children and wait for the subtree to exit."""
        if self._closed:
            return
        self.stop()
        for child in self.children:
            await child.handle.join()
        self.children.clear()
        self._idle.clear()
        self._by_name.clear()
        self._detached.clear()
