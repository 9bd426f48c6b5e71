"""Query results with execution statistics.

A result holds data: rows, counters, the plan that ran and, on a traced
run, its spans.  Every text made from it is a function of
:mod:`repro.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.algebra.plan import PlanNode
from repro.cache import CacheStats
from repro.fdb.values import Bag
from repro.obs.critical_path import CriticalPathReport, analyze_critical_path
from repro.obs.run import FaultStats, MessageStats, TreeStats
from repro.obs.spans import SpanStore
from repro.services.broker import CallStats


@dataclass
class QueryResult:
    """Everything one query execution produced.

    ``elapsed`` is in *model seconds* — under the simulated kernel that is
    the virtual clock the paper's wall-clock measurements correspond to.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    elapsed: float
    mode: str
    total_calls: int
    call_stats: dict[str, CallStats] = field(default_factory=dict)
    tree: TreeStats = field(default_factory=TreeStats)
    # The compiled plan that ran (the engine's plan cache keeps it alive
    # anyway); None for a result built by hand.
    plan: PlanNode | None = None
    # The query's call-memo counters across all its processes; None exactly
    # when the query did not memoize.
    cache_stats: CacheStats | None = None
    # Data-path message counts aggregated over every operator pool in the
    # query (per-tuple and batched, both directions).  Central-mode runs
    # send no inter-process messages, so all counters stay 0.
    message_stats: MessageStats = field(default_factory=MessageStats)
    # Failure accounting aggregated over every operator pool (failed
    # calls, redeliveries, skips, respawns, breaker trips); all zero on a
    # clean run.
    fault_stats: FaultStats = field(default_factory=FaultStats)
    # Span store of a traced run (``obs=TraceRecorder()``); None when the
    # query ran untraced.
    spans: SpanStore | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def as_bag(self) -> Bag:
        """Order-insensitive view for comparing parallel to central runs."""
        return Bag(self.rows)

    def calls(self, operation: str) -> int:
        stats = self.call_stats.get(operation)
        return stats.calls if stats else 0

    def critical_path(self) -> CriticalPathReport:
        """Critical-path analysis of a traced run (empty when untraced)."""
        return analyze_critical_path(self.spans if self.spans is not None else SpanStore())


class QueryStream:
    """One running query's rows, chunk by chunk: the one way a query runs.

    ``async for chunk in stream`` yields non-empty lists of row tuples as
    the plan's pull chain produces them — under an ``FF_APPLYP``
    coordinator, one row the moment a child delivers it.  ``columns`` is
    set before the first chunk is yielded (on an engine: after admission
    and compilation); ``result`` once the last one has been: the query's
    :class:`QueryResult`, built after its teardown, with ``rows`` left
    for the consumer (:meth:`collect` fills it in).

    ``aclose()`` abandons the query where it stands: every pool
    invocation stops through its ``GeneratorExit`` path, and the
    teardown that follows the last chunk — pools released or closed,
    the admission ticket returned — runs all the same.

    ``body(stream, *args)`` is the async generator that runs the query
    and sets ``columns``/``result`` on the stream it is handed.
    """

    __slots__ = ("columns", "result", "_chunks")

    def __init__(self, body, *args) -> None:
        self.columns: tuple[str, ...] | None = None
        self.result: QueryResult | None = None
        self._chunks = body(self, *args)

    def __aiter__(self):
        return self._chunks

    async def aclose(self) -> None:
        await self._chunks.aclose()

    async def collect(self) -> QueryResult:
        """Run the query to its end; the result with every row."""
        rows = [row async for chunk in self._chunks for row in chunk]
        self.result.rows = rows
        return self.result
