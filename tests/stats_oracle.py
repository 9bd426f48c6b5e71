"""The specification of a query's tree and fault statistics.

The pools count ``QueryResult.tree`` and ``fault_stats`` where the events
happen.  These derivations recompute both from the instants a traced run
records in its span store (``TraceRecorder.store``); a traced query's
counters must equal them.  Alive children per (parent process, plan
function) are spawns minus drops, a plain per-key sum.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.run import FaultStats, TreeStats
from repro.obs.spans import SpanStore


def _instants(spans: SpanStore, name: str) -> list:
    return [span for span in spans.find(name) if span.instant]


def tree_stats_from_trace(spans: SpanStore) -> TreeStats:
    """The process tree an execution built, from its spawn/add/drop instants."""
    alive: Counter = Counter()
    for span in _instants(spans, "spawn"):
        alive[span.process, span.attrs["plan_function"]] += 1
    drops = _instants(spans, "drop_stage")
    for span in drops:
        alive[span.process, span.attrs["plan_function"]] -= 1
    return TreeStats(
        processes_spawned=len(_instants(spans, "spawn")),
        processes_dropped=len(drops),
        add_stages=len(_instants(spans, "add_stage")),
        drop_stages=len(drops),
        alive=dict(alive),
    )


def fault_stats_from_trace(spans: SpanStore) -> FaultStats:
    """Failure accounting from the pools' fault-tolerance instants."""
    failed = _instants(spans, "call_failed")
    return FaultStats(
        failed_calls=len(failed),
        redeliveries=len(_instants(spans, "redeliver")),
        skipped_rows=sum(1 for span in failed if span.attrs.get("policy") == "skip"),
        respawns=len(_instants(spans, "respawn")),
        breaker_trips=len(_instants(spans, "breaker_open")),
    )
