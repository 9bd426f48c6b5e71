"""Cost parameters of query processes and their messaging.

These model the client-side overheads the paper's experiments include:
starting query processes, shipping plan functions (code shipping),
shipping parameter tuples one by one, and streaming result tuples back.
Together with server capacities they are why ever-larger process trees
stop paying off — the interior optimum of Figs 16/17.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import PlanError


@dataclass(frozen=True)
class ProcessCosts:
    """All client-side overheads, in model seconds.

    ``startup``        time for a new query process to become ready.
    ``ship_function``  parent CPU per child to serialize + send a plan
                       function (paid serially per child).
    ``install``        child time to install a received plan function.
    ``ship_param``     parent CPU per parameter tuple shipped.
    ``result_tuple``   child CPU per result tuple streamed back.
    ``message_latency``transit time of any inter-process message.
    ``dispatch``       parameter-tuple dispatch policy: ``first_finished``
                       (the paper's FF policy — the next pending tuple goes
                       to whichever child finished first), ``round_robin``
                       (tuples are dealt out in fixed rotation regardless of
                       child progress; the ablation baseline), or
                       ``hash_affinity`` (tuples are routed to a child by a
                       stable hash of the parameter tuple so repeated keys
                       land on the same child, falling back to
                       first-finished placement while the affinity target
                       is saturated; the query's one call memo answers
                       repeats under any policy).
    ``prefetch``       how many parameter tuples a child may have
                       outstanding.  1 is the paper's protocol (next tuple
                       only after end-of-call); larger values pipeline the
                       shipping latency at the cost of less adaptive
                       placement.  With batching, the per-child limit is
                       ``prefetch`` *batches* (``prefetch * batch_size``
                       tuples).
    ``batch_size``     parameter/result tuples coalesced per message.  1
                       (the default) is the paper's one-message-per-tuple
                       protocol, reproduced bit for bit; larger values
                       amortize ``message_latency`` over the batch while
                       still paying ``ship_param``/``result_tuple`` per
                       row.
    ``max_redeliveries`` times one parameter row may be redelivered under
                       the query's ``on_error="retry"`` before its failure
                       becomes a query error.
    """

    startup: float = 0.25
    ship_function: float = 0.05
    install: float = 0.05
    ship_param: float = 0.01
    result_tuple: float = 0.002
    message_latency: float = 0.005
    dispatch: str = "first_finished"
    prefetch: int = 1
    batch_size: int = 1
    max_redeliveries: int = 2

    def __post_init__(self) -> None:
        for name in (
            "startup",
            "ship_function",
            "install",
            "ship_param",
            "result_tuple",
            "message_latency",
        ):
            if getattr(self, name) < 0:
                raise PlanError(f"process cost {name} must be non-negative")
        if self.dispatch not in ("first_finished", "round_robin", "hash_affinity"):
            raise PlanError(f"unknown dispatch policy {self.dispatch!r}")
        if self.prefetch < 1:
            raise PlanError(f"prefetch depth must be >= 1, got {self.prefetch}")
        if self.batch_size < 1:
            raise PlanError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_redeliveries < 0:
            raise PlanError(
                f"max_redeliveries must be >= 0, got {self.max_redeliveries}"
            )

    def scaled(self, factor: float) -> "ProcessCosts":
        """All costs multiplied by ``factor`` (pairs with profile scaling)."""
        if factor < 0:
            raise PlanError(
                f"process cost scale factor must be non-negative, got {factor}"
            )
        return replace(
            self,
            startup=self.startup * factor,
            ship_function=self.ship_function * factor,
            install=self.install * factor,
            ship_param=self.ship_param * factor,
            result_tuple=self.result_tuple * factor,
            message_latency=self.message_latency * factor,
        )
