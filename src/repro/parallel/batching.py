"""Adaptive micro-batching of parameter and result streams.

The paper's ``FF_APPLYP`` protocol ships one message per parameter tuple
and one per result tuple (Sec. III.A), so for wide fan-outs over cheap
calls the client-side messaging — not the web services — dominates (the
same client-overhead regime that produces the interior optima of Figs
16/17).  The :class:`BatchController` coalesces tuples per child and
flushes a :class:`~repro.parallel.messages.ParamBatch` when

* ``batch_size`` rows have accumulated for the child (*size* trigger),
* an adaptive shrink leaves the child's buffer over-full (*adaptive*),
* the child is dropped by adaptation (*drop_stage*), or
* the parameter stream ends (*stream_end*), so nothing is ever stranded.

Costs are amortized honestly: a batch pays ``message_latency`` once (one
channel transit) plus the per-row ``ship_param``/``result_tuple`` CPU, so
what batching buys in the model is exactly what it buys in reality —
fewer per-call round trips, not free work.

In *adaptive* mode the per-child batch size is derived from the observed
per-call service time (an EWMA of ``EndOfCall.service_time``) against the
round-trip messaging overhead ``2 * message_latency``: the size is chosen
so that messaging stays below ``_TARGET_OVERHEAD`` of useful work.  Cheap
calls therefore get large batches while a straggler child degenerates to
batch 1, keeping first-finished placement adaptive exactly where it
matters.

With ``batch_size=1`` and adaptation off the controller is
pass-through: it sends the same per-tuple messages in the same order as
the seed protocol, bit for bit.
"""

from __future__ import annotations

from math import ceil
from typing import TYPE_CHECKING

from repro.parallel.messages import EndOfCall, ParamBatch, ParamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.parallel.ff_applyp import ChildPool, _Child

# Adaptive mode: ceiling on a per-child batch, and the fraction of a
# call's service time the per-call messaging overhead may consume before
# the controller grows the batch further.
_ADAPTIVE_MAX = 32
_TARGET_OVERHEAD = 0.05
# EWMA smoothing for observed per-call service times.
_EWMA_ALPHA = 0.4


class BatchController:
    """Per-pool coalescing of parameter tuples into ``ParamBatch``es.

    The pool routes every dispatched tuple through :meth:`add`; the
    controller decides whether it goes out immediately as a ``ParamTuple``
    (batching disabled, or the child's current batch size is 1) or is
    buffered until a flush trigger fires.
    """

    def __init__(self, pool: "ChildPool") -> None:
        self.pool = pool
        costs = pool.costs
        self.base_size = costs.batch_size
        self.adaptive = costs.batch_adaptive
        # Disabled means strict seed behavior: one ParamTuple per row, no
        # buffering, no flush bookkeeping.
        self.enabled = self.base_size > 1 or self.adaptive
        self._buffers: dict[str, list[tuple]] = {}
        self._sizes: dict[str, int] = {}
        self._service_ewma: dict[str, float] = {}

    # -- sizing ------------------------------------------------------------------

    def target_size(self, child_name: str) -> int:
        """The batch size currently aimed at for ``child_name``."""
        if not self.enabled:
            return 1
        if not self.adaptive:
            return self.base_size
        size = self._sizes.get(child_name, max(1, self.base_size))
        # Tail fairness: when the queued work remaining is scarce relative
        # to the pool, cap the batch at a fair share so the first finisher
        # cannot swallow the whole queue and serialize the tail while the
        # other children idle.
        pending = len(self.pool._pending)
        if pending:
            children = max(1, len(self.pool.children))
            size = min(size, -(-pending // children))
        return max(1, size)

    def capacity(self, child: "_Child") -> int:
        """Tuples the child may hold: ``prefetch`` batches of current size."""
        return self.pool.costs.prefetch * self.target_size(child.endpoints.name)

    def buffered(self, child_name: str) -> int:
        return len(self._buffers.get(child_name, ()))

    def observe(self, end_of_call: EndOfCall) -> None:
        """Feed one call's measured service time to the adaptive sizing.

        The target size keeps the per-call share of the batch round trip
        (``2 * message_latency``) below ``_TARGET_OVERHEAD`` of the
        child's smoothed service time — large batches for cheap calls,
        batch 1 for stragglers.
        """
        if not self.adaptive:
            return
        name = end_of_call.child
        observed = max(0.0, end_of_call.service_time)
        previous = self._service_ewma.get(name)
        smoothed = (
            observed
            if previous is None
            else (1.0 - _EWMA_ALPHA) * previous + _EWMA_ALPHA * observed
        )
        self._service_ewma[name] = smoothed
        round_trip = 2.0 * self.pool.costs.message_latency
        if round_trip <= 0.0:
            size = 1  # messaging is free; batching cannot help
        elif smoothed <= 0.0:
            size = _ADAPTIVE_MAX  # instantaneous calls: all overhead
        else:
            size = ceil(round_trip / (_TARGET_OVERHEAD * smoothed))
        self._sizes[name] = max(1, min(_ADAPTIVE_MAX, size))
        # A shrink can leave an over-full buffer behind; release it now.
        child = self.pool._by_name.get(name)
        if child is not None and self.buffered(name) >= self._sizes[name]:
            self.flush(child, "adaptive")

    # -- the enqueue/flush cycle -----------------------------------------------------

    def add(self, child: "_Child", row: tuple) -> None:
        """Accept one dispatched tuple for ``child`` (ship cost already paid)."""
        name = child.endpoints.name
        if not self.enabled or self.target_size(name) <= 1:
            self._send_single(child, row)
            return
        buffer = self._buffers.setdefault(name, [])
        buffer.append(row)
        if len(buffer) >= self.target_size(name):
            self.flush(child, "size")

    def flush(self, child: "_Child", trigger: str) -> None:
        """Send whatever is buffered for ``child`` as one message."""
        name = child.endpoints.name
        buffer = self._buffers.pop(name, None)
        if not buffer:
            return
        if len(buffer) == 1:
            # A batch of one needs no batch framing — and under adaptive
            # mode this is exactly the straggler fallback to the paper's
            # per-tuple protocol.
            self._send_single(child, buffer[0])
        else:
            pool = self.pool
            seq_start = pool._seq + 1
            pool._seq += len(buffer)
            for offset, row in enumerate(buffer):
                child.inflight[seq_start + offset] = row
            child.endpoints.downlink.send(
                ParamBatch(seq_start, tuple(buffer), span=pool._inv_span)
            )
            stats = pool.ctx.run.message_stats
            stats.param_batches += 1
            stats.batched_params += len(buffer)
        flushes = self.pool.ctx.run.message_stats.flushes
        flushes[trigger] = flushes.get(trigger, 0) + 1
        self.pool.event("batch_flush", child=name, size=len(buffer), trigger=trigger)

    def flush_all(self, trigger: str) -> None:
        """Flush every non-empty buffer (stream end, pool close)."""
        if not self._buffers:
            return
        for name in [name for name, rows in self._buffers.items() if rows]:
            child = self.pool._by_name.get(name)
            if child is None:
                # The child vanished between buffering and flushing (it
                # was dropped without the drop-site flushing first); put
                # its rows back in the pending queue rather than lose them.
                for row in self._buffers.pop(name):
                    self.pool._pending.append(row)
                continue
            self.flush(child, trigger)

    def take_buffer(self, child_name: str) -> list[tuple]:
        """Remove and return the rows buffered for one child.

        Used when a child is evicted (death, error): its buffered rows
        were never shipped, so the pool re-owns them for redelivery.
        """
        return self._buffers.pop(child_name, [])

    def discard(self) -> None:
        """Drop buffered rows (abandoned query; mirrors how the per-tuple
        protocol abandons its pending queue on early close)."""
        self._buffers.clear()

    def _send_single(self, child: "_Child", row: tuple) -> None:
        pool = self.pool
        pool._seq += 1
        child.inflight[pool._seq] = row
        child.endpoints.downlink.send(
            ParamTuple(pool._seq, row, span=pool._inv_span)
        )
        pool.ctx.run.message_stats.param_tuples += 1
