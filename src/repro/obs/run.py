"""One query's run: the object every process of the query reports into.

A :class:`QueryRun` holds what is per query rather than per process — the
trace, the call recorder, the cache and message counters, the retry
policy, the shared tier, the span recorder and the process-name counter.
Every :class:`~repro.algebra.interpreter.ExecutionContext` of the query
holds the same run by reference, and every process counts into it where
the event happens, so re-homing a warm child into a new query is one
assignment (``child_ctx.run = run``).

A child inside an OS worker counts into a worker-local run instead.
:meth:`QueryRun.drain` takes what it counted since the last drain as one
picklable value, which rides the child's next call-ending message (and its
exit report) to the coordinator, where :meth:`QueryRun.absorb` folds it
into the owning query's run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.cache import CacheStats
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.services.broker import CallRecorder
from repro.util.trace import TraceLog


@dataclass
class MessageStats:
    """Data-path message counts over every operator pool of a query.

    Downlink counts are incremented when the parent sends, uplink counts
    when the parent receives, so both kernels account identically.
    """

    param_tuples: int = 0  # ParamTuple messages sent
    param_batches: int = 0  # ParamBatch messages sent
    batched_params: int = 0  # rows carried inside ParamBatches
    result_tuples: int = 0  # ResultTuple messages received
    result_batches: int = 0  # ResultBatch messages received
    batched_results: int = 0  # rows carried inside ResultBatches
    end_of_calls: int = 0  # stand-alone EndOfCall messages received
    flushes: dict[str, int] = field(default_factory=dict)  # trigger -> count

    @property
    def downlink_messages(self) -> int:
        return self.param_tuples + self.param_batches

    @property
    def uplink_messages(self) -> int:
        return self.result_tuples + self.result_batches + self.end_of_calls

    @property
    def total_messages(self) -> int:
        return self.downlink_messages + self.uplink_messages


@dataclass
class QueryRun:
    """Everything one query's processes report into (see module docs)."""

    trace: TraceLog = field(default_factory=TraceLog)
    # Per-query statistics sink mirrored by the broker, so queries sharing
    # one broker see only their own calls.
    call_recorder: CallRecorder = field(default_factory=CallRecorder)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    message_stats: MessageStats = field(default_factory=MessageStats)
    # Transient-fault policy for web-service calls: a retriable
    # ServiceFault is retried up to `retries` times, sleeping
    # `retry_backoff` model seconds between attempts.
    retries: int = 0
    retry_backoff: float = 0.5
    # The tier between a process's call cache and the broker: the engine's
    # SharedCallCache, or inside an OS worker the proxy to the coordinator.
    # None calls the broker directly (the seed path).  Typed loosely
    # because both live above this module.
    shared: Optional[object] = None
    # Span recorder.  NULL_RECORDER is a shared no-op whose `enabled` flag
    # gates every instrumentation site, so an untraced run is the seed's.
    obs: NullRecorder = NULL_RECORDER
    # Process numbers; a resident engine passes one counter to all its
    # queries, so names stay unique across the engine.
    names: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def next_process_name(self) -> str:
        return f"q{next(self.names)}"

    def drain(self) -> tuple | None:
        """Take the trace rows, finished spans and counter deltas recorded
        since the last drain; None when there are none."""
        spans = self.obs.take_finished() if self.obs.enabled else []
        cache_stats, message_stats = _take(self.cache_stats), _take(self.message_stats)
        if not (len(self.trace) or spans or cache_stats or message_stats):
            return None
        events, self.trace = list(self.trace), TraceLog()
        return events, spans, cache_stats, message_stats

    def absorb(self, delta: tuple) -> None:
        """Fold a :meth:`drain` of another run into this one."""
        events, spans, cache_stats, message_stats = delta
        self.trace.extend(events)
        if self.obs.enabled:
            for span in spans:
                self.obs.store.add(span)
        _add(self.cache_stats, cache_stats)
        _add(self.message_stats, message_stats)


def _take(counters):
    """A copy of ``counters``, which restart from zero; None if all are 0.
    Zeroed in place: a call in flight may still hold the object."""
    state = vars(counters)
    if not any(state.values()):
        return None
    taken = type(counters)(**state)
    counters.__init__()
    return taken


def _add(into, delta) -> None:
    if delta is None:
        return
    counts = vars(into)
    for name, value in vars(delta).items():
        if type(value) is dict:
            for key, count in value.items():
                counts[name][key] = counts[name].get(key, 0) + count
        elif value:
            counts[name] += value
