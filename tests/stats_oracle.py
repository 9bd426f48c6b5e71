"""The specification of a query's tree and fault statistics.

The pools count ``QueryResult.tree`` and ``fault_stats`` where the events
happen.  These derivations recompute both from a traced run's event log
(``TraceRecorder.events``); a traced query's counters must equal them.
Alive children per (parent process, plan function) are spawns minus drops,
a plain per-key sum.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.run import FaultStats, TreeStats
from repro.util.trace import TraceLog


def tree_stats_from_trace(trace: TraceLog) -> TreeStats:
    """The process tree an execution built, from its spawn/add/drop events."""
    alive: Counter = Counter()
    spawned = dropped = added = 0
    for event in trace:
        if event.kind == "spawn":
            spawned += 1
            alive[event.data["parent"], event.data["plan_function"]] += 1
        elif event.kind == "drop_stage":
            dropped += 1
            alive[event.data["process"], event.data["plan_function"]] -= 1
        elif event.kind == "add_stage":
            added += 1
    return TreeStats(
        processes_spawned=spawned,
        processes_dropped=dropped,
        add_stages=added,
        drop_stages=dropped,
        alive=dict(alive),
    )


def fault_stats_from_trace(trace: TraceLog) -> FaultStats:
    """Failure accounting from the pools' fault-tolerance events."""
    failed = trace.events("call_failed")
    return FaultStats(
        failed_calls=len(failed),
        redeliveries=len(trace.events("redeliver")),
        skipped_rows=sum(1 for event in failed if event.data.get("policy") == "skip"),
        respawns=len(trace.events("respawn")),
        breaker_trips=len(trace.events("breaker_open")),
    )
