"""Micro-batching of parameter and result streams.

The paper's ``FF_APPLYP`` protocol ships one message per parameter tuple
and one per result tuple (Sec. III.A), so for wide fan-outs over cheap
calls the client-side messaging — not the web services — dominates (the
same client-overhead regime that produces the interior optima of Figs
16/17).  The :class:`BatchController` coalesces tuples per child and
flushes a :class:`~repro.parallel.messages.ParamBatch` when

* ``batch_size`` rows have accumulated for the child (*size* trigger),
* the child is dropped by adaptation (*drop_stage*), or
* the parameter stream ends (*stream_end*), so nothing is ever stranded.

Costs are amortized honestly: a batch pays ``message_latency`` once (one
channel transit) plus the per-row ``ship_param``/``result_tuple`` CPU, so
what batching buys in the model is exactly what it buys in reality —
fewer per-call round trips, not free work.

With ``batch_size=1`` the controller is pass-through: it sends the same
per-tuple messages in the same order as the seed protocol, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.parallel.messages import ParamBatch, ParamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.parallel.ff_applyp import ChildPool, _Child


class BatchController:
    """Per-pool coalescing of parameter tuples into ``ParamBatch``es.

    The pool routes every dispatched tuple through :meth:`add`; the
    controller decides whether it goes out immediately as a ``ParamTuple``
    (batching disabled) or is buffered until a flush trigger fires.
    """

    def __init__(self, pool: "ChildPool") -> None:
        self.pool = pool
        self.size = pool.costs.batch_size
        # Disabled means strict seed behavior: one ParamTuple per row, no
        # buffering, no flush bookkeeping.
        self.enabled = self.size > 1
        self._buffers: dict[str, list[tuple]] = {}

    def capacity(self, child: "_Child") -> int:
        """Tuples the child may hold: ``prefetch`` batches."""
        return self.pool.costs.prefetch * self.size

    # -- the enqueue/flush cycle -----------------------------------------------------

    def add(self, child: "_Child", row: tuple) -> None:
        """Accept one dispatched tuple for ``child`` (ship cost already paid)."""
        if not self.enabled:
            self._send_single(child, row)
            return
        buffer = self._buffers.setdefault(child.endpoints.name, [])
        buffer.append(row)
        if len(buffer) >= self.size:
            self.flush(child, "size")

    def flush(self, child: "_Child", trigger: str) -> None:
        """Send whatever is buffered for ``child`` as one message."""
        name = child.endpoints.name
        buffer = self._buffers.pop(name, None)
        if not buffer:
            return
        if len(buffer) == 1:
            # A batch of one needs no batch framing.
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
