"""``AFF_APPLYP`` — Adaptive First Finished Apply in Parallel (Sec. V.A).

Replaces the explicit fanout of ``FF_APPLYP`` with local run-time
adaptation in every non-leaf query process:

1. *init stage* — start with a binary tree (fanout ``INIT_FANOUT`` = 2);
2. a *monitoring cycle* completes when the process has received as many
   end-of-call messages as it has children;
3. after the first cycle, the *add stage* starts ``p`` new children;
4. per cycle ``i`` the operator records the average time ``t_i`` to
   produce an incoming tuple from the children; a decrease of more than
   ``threshold`` (paper: 25 %) re-runs the add stage, an increase either
   stops adaptation or runs a *drop stage* removing one child and its
   subtree, and a small change stops adaptation.

On a traced run all decisions are recorded as ``adapt`` instants (names
``init_stage``, ``cycle``, ``add_stage``, ``drop_stage``, ``adapt_stop``)
so tests and the Figs 18-20 bench can replay the dynamics; the add and
drop stages are also counted in the run's tree statistics.
"""

from __future__ import annotations

import math

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import INIT_FANOUT, AdaptationParams, PlanFunction
from repro.parallel.costs import ProcessCosts
from repro.parallel.ff_applyp import ChildPool, _Invocation
from repro.parallel.messages import CallFailed, EndOfCall, ResultTuple

#: Add and drop stages one pool may run before adaptation stops.
MAX_STAGES = 50


class AFFPool(ChildPool):
    """The adaptive pool behind one ``AFF_APPLYP`` node: the FF pool with
    an ``INIT_FANOUT`` init stage, monitoring of every accepted row and
    resolved call, and add/drop stages."""

    def __init__(
        self,
        ctx: ExecutionContext,
        plan_function: PlanFunction,
        costs: ProcessCosts,
        params: AdaptationParams,
    ) -> None:
        super().__init__(ctx, plan_function, costs, INIT_FANOUT)
        self.params = params
        self._stages = 0
        self._adapting = True
        self._had_first_cycle = False
        self._previous_time_per_tuple: float | None = None
        self._start_cycle(0.0)

    # -- lifecycle hooks --------------------------------------------------------

    async def on_first_use(self) -> None:
        await super().on_first_use()
        self._cycle_started_at = self.ctx.kernel.now()
        self.event("init_stage", category="adapt", children=len(self.children))

    def _start_cycle(self, now: float) -> None:
        self._cycle_started_at = now
        self._eoc_in_cycle = 0
        self._results_in_cycle = 0
        self._service_in_cycle = 0.0
        self._failed_in_cycle = 0

    def on_rebind(self) -> None:
        """Restart the monitoring clock for the adopting query.

        The adapted tree itself is the asset being reused, so adaptation
        state (``_adapting``, fanout) carries over; but cycle accounting
        must not straddle queries — a cycle clock left at the previous
        query's end would make the first warm cycle look arbitrarily slow.
        """
        self._start_cycle(self.ctx.kernel.now())

    def _accept_row(self, message: ResultTuple) -> tuple | None:
        row = super()._accept_row(message)
        if row is not None:
            self._results_in_cycle += 1
        return row

    async def _resolve_call(self, inv: _Invocation, message: EndOfCall) -> bool:
        if not await super()._resolve_call(inv, message):
            return False
        self._service_in_cycle += message.service_time
        await self._slot_done()
        return True

    async def on_call_failed(self, message: CallFailed) -> None:
        """A failed call still completes a monitoring slot.

        It counts toward cycle completion (the child *is* done with the
        call) but is tracked separately, so a flaky child that fails fast
        is not misread as a fast one by the adaptation heuristic.
        """
        self._failed_in_cycle += 1
        await self._slot_done()

    # -- monitoring cycles --------------------------------------------------------

    async def _slot_done(self) -> None:
        """A cycle completes after as many resolved calls as children."""
        self._eoc_in_cycle += 1
        if self._eoc_in_cycle >= len(self.children):
            await self._finish_cycle()

    async def _finish_cycle(self) -> None:
        now = self.ctx.kernel.now()
        duration = now - self._cycle_started_at
        tuples = self._results_in_cycle
        failed = self._failed_in_cycle
        # Only successful calls carry service time; averaging over the
        # failed ones too would make a flaky child look fast.
        calls = self._eoc_in_cycle - failed
        time_per_tuple = duration / tuples if tuples else math.inf
        # Mean child-side occupancy per call — distinguishes slow calls
        # (high mean_service_time) from large results (high tuples).
        mean_service_time = self._service_in_cycle / calls if calls else 0.0
        self.event(
            "cycle",
            category="adapt",
            children=len(self.children),
            tuples=tuples,
            time_per_tuple=time_per_tuple,
            mean_service_time=mean_service_time,
            **({"failed": failed} if failed else {}),
        )
        self._start_cycle(now)

        if not self._adapting:
            return
        if not self._had_first_cycle:
            # Step 2: after the first monitoring cycle, add p children.
            self._had_first_cycle = True
            self._previous_time_per_tuple = time_per_tuple
            await self._add_stage()
            return

        previous = self._previous_time_per_tuple
        self._previous_time_per_tuple = time_per_tuple
        if previous is None or not math.isfinite(previous):
            return
        if time_per_tuple < previous * (1.0 - self.params.threshold):
            await self._add_stage()
        elif time_per_tuple > previous:
            if self.params.drop_stage:
                await self._drop_stage()
            else:
                self._stop("time per tuple increased")
        else:
            self._stop("time per tuple stabilized")

    def _stop(self, reason: str) -> None:
        self._adapting = False
        self.event(
            "adapt_stop", category="adapt", children=len(self.children), reason=reason
        )

    async def _add_stage(self) -> None:
        self._stages += 1
        if self._stages > MAX_STAGES:
            self._stop("stage limit reached")
            return
        room = self.params.max_fanout - len(self.children)
        to_add = min(self.params.p, room)
        if to_add <= 0:
            self._stop("maximum fanout reached")
            return
        await self.spawn_children(to_add, adaptive=True)
        self.ctx.run.tree.add_stages += 1
        self.event(
            "add_stage", category="adapt", added=to_add, children=len(self.children)
        )

    async def _drop_stage(self) -> None:
        self._stages += 1
        if self._stages > MAX_STAGES:
            self._stop("stage limit reached")
            return
        if len(self.children) <= INIT_FANOUT:
            self._stop("cannot drop below the initial tree")
            return
        victim = self.children[-1]
        self.drop_child(victim)
        self.ctx.run.tree.dropped(self.ctx.process_name, self.plan_function.name)
        self.event(
            "drop_stage",
            category="adapt",
            dropped=victim.endpoints.name,
            children=len(self.children),
        )
