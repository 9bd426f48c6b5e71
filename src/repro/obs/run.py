"""One query's run: the object every process of the query reports into.

A :class:`QueryRun` holds what is per query rather than per process — the
call recorder, the cache, message, tree and fault counters, the retry and
failure policies, the injected faults, the call memo and dispatch path,
the span recorder (which alone records events, and only when the query
is traced) and the process-name counter.
Every :class:`~repro.algebra.interpreter.ExecutionContext` of the query
holds the same run by reference, and every process counts into it where
the event happens, so re-homing a warm child into a new query is one
assignment (``child_ctx.run = run``).

A child inside an OS worker counts into a worker-local run instead.
:meth:`QueryRun.drain` takes what it counted since the last drain as one
picklable value, which rides the child's next call-ending message (and its
exit report) to the coordinator, where :meth:`QueryRun.absorb` folds it
into the owning query's run.  Every counter is a plain sum (or, for a
call's timings, a count/sum/min/max), so the deltas add exactly.  A
``local_services`` worker's broker records its calls into the child's
run, so they reach the query's call statistics this way; a proxied call
is recorded where the coordinator's broker serves it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.cache import CacheStats, CallMemo
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.services.broker import CallRecorder


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
class TreeStats:
    """What one execution's process tree looked like, counted where the
    pools spawn (``spawn``) and adapt (``add_stage``, ``drop_stage``)."""

    processes_spawned: int = 0
    processes_dropped: int = 0
    add_stages: int = 0
    drop_stages: int = 0
    # Children alive per (parent process, plan function): spawns minus
    # drops.  A drop of a child spawned by an earlier query (a warm AFF
    # pool) counts -1 here, so worker deltas add like every other counter.
    alive: dict[tuple[str, str], int] = field(default_factory=dict)

    def spawned(self, parent: str, plan_function: str) -> None:
        self.processes_spawned += 1
        key = (parent, plan_function)
        self.alive[key] = self.alive.get(key, 0) + 1

    def dropped(self, parent: str, plan_function: str) -> None:
        self.processes_dropped += 1
        self.drop_stages += 1
        key = (parent, plan_function)
        self.alive[key] = self.alive.get(key, 0) - 1

    @property
    def pools_by_level(self) -> dict[str, int]:
        """Plan function name -> number of pools applying it."""
        pools: dict[str, int] = {}
        for _, plan_function in self.alive:
            pools[plan_function] = pools.get(plan_function, 0) + 1
        return pools

    @property
    def fanout_by_level(self) -> dict[str, float]:
        """Plan function name -> average final fanout of its pools."""
        children: dict[str, int] = {}
        for (_, plan_function), count in self.alive.items():
            children[plan_function] = children.get(plan_function, 0) + count
        pools = self.pools_by_level
        return {name: total / pools[name] for name, total in children.items()}

    def average_fanouts(self) -> list[float]:
        """Average fanout per level, outermost plan function first."""
        fanouts = self.fanout_by_level
        return [fanouts[name] for name in sorted(fanouts)]


@dataclass
class FaultStats:
    """Query-wide failure accounting, counted where the pools report
    ``call_failed``, ``redeliver``, ``respawn`` and ``breaker_open``.

    ``failed_calls``   per-call failures reported by children (including
                       rows lost to a child death, which are written off
                       the same way),
    ``redeliveries``   failed rows re-dispatched under ``on_error="retry"``,
    ``skipped_rows``   failed rows dropped under ``on_error="skip"``,
    ``respawns``       replacement children started for dead ones,
    ``breaker_trips``  pools whose failure rate escalated to a hard error.
    """

    failed_calls: int = 0
    redeliveries: int = 0
    skipped_rows: int = 0
    respawns: int = 0
    breaker_trips: int = 0

    def any(self) -> bool:
        return any(vars(self).values())


@dataclass
class QueryRun:
    """Everything one query's processes report into (see module docs)."""

    # Per-query statistics sink mirrored by the broker, so queries sharing
    # one broker see only their own calls.
    call_recorder: CallRecorder = field(default_factory=CallRecorder)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    message_stats: MessageStats = field(default_factory=MessageStats)
    tree: TreeStats = field(default_factory=TreeStats)
    fault_stats: FaultStats = field(default_factory=FaultStats)
    # Transient-fault policy for web-service calls: a retriable
    # ServiceFault is retried up to `retries` times, sleeping
    # `retry_backoff` model seconds between attempts.
    retries: int = 0
    retry_backoff: float = 0.5
    # QueryOptions.on_error and .faults (a FaultInjection, typed loosely:
    # it lives above this module), read per call by pools and children.
    # `service_faults`: the query's own stream of service-fault draws
    # (FaultInjection.service_fault_stream, derived from `faults` unless
    # given), None when it injects none.
    on_error: str = "fail"
    faults: Optional[object] = None
    service_faults: Optional[random.Random] = None
    # Where round_trip sends this query's calls (repro.algebra.interpreter).
    # `memo`: its address space's CallMemo when the query memoizes, storing
    # entries for `ttl` model seconds.  `remote`: inside an OS worker
    # without services of its own, the proxy to the coordinator, which
    # answers every call.  None everywhere is the seed path: straight to
    # the broker.  `remote` is typed loosely: it lives above this module.
    memo: Optional[CallMemo] = None
    ttl: Optional[float] = None
    remote: Optional[object] = None
    # Span recorder.  NULL_RECORDER is a shared no-op whose
    # `enabled` flag gates every instrumentation site, so an untraced run
    # records nothing and computes exactly what a traced one does.
    obs: NullRecorder = NULL_RECORDER
    # Process numbers; a resident engine passes one counter to all its
    # queries, so names stay unique across the engine.
    names: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        if self.faults is not None and self.service_faults is None:
            self.service_faults = self.faults.service_fault_stream()

    @property
    def memoizes(self) -> bool:
        """Whether this run's calls are memoized: by its address space's
        memo, or — a worker child's, forwarded — by the coordinator's."""
        return self.memo is not None or (self.remote is not None and self.remote.memoizes)

    def next_process_name(self) -> str:
        return f"q{next(self.names)}"

    def drain(self) -> tuple | None:
        """Take the call statistics and counter deltas, and on a traced
        run the finished spans, recorded since the last drain; None when
        there are none."""
        spans = self.obs.take() if self.obs.enabled else []
        calls = self.call_recorder.take()
        delta = (spans, calls, *(_take(counter) for counter in self._counters()))
        return delta if any(delta) else None

    def absorb(self, delta: tuple) -> None:
        """Fold a :meth:`drain` of another run into this one."""
        spans, calls, *counters = delta
        if self.obs.enabled:
            for span in spans:
                self.obs.store.add(span)
        if calls is not None:
            self.call_recorder.absorb(calls)
        for into, counter in zip(self._counters(), counters):
            _add(into, counter)

    def _counters(self) -> tuple:
        return self.cache_stats, self.message_stats, self.tree, self.fault_stats


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
