"""Query results with execution statistics.

The statistics surface is the :meth:`QueryResult.report` method: it renders
named sections ("calls", "tree", "cache", "batch", "faults",
"critical_path") straight from the result's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.cache import CacheStats
from repro.fdb.values import Bag
from repro.obs.critical_path import CriticalPathReport, analyze_critical_path
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.run import FaultStats, MessageStats, TreeStats
from repro.obs.spans import SpanStore
from repro.services.broker import CallStats
from repro.util.errors import ReproError

#: Section names accepted by :meth:`QueryResult.report`, in display order.
REPORT_SECTIONS = ("calls", "tree", "cache", "batch", "faults", "critical_path")


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
    plan_text: str = ""
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

    def _spans(self) -> SpanStore:
        if self.spans is None:
            raise ReproError(
                "the query was not traced; run it with "
                "QueryOptions(obs=TraceRecorder()) to record its spans"
            )
        return self.spans

    def process_tree(self) -> str:
        """ASCII rendering of the process tree this execution built."""
        from repro.parallel.visualize import render_process_tree

        return render_process_tree(self._spans())

    def utilization(self, top: int = 12) -> str:
        """Text report of the busiest query processes."""
        from repro.parallel.visualize import render_utilization

        return render_utilization(self._spans(), top=top)

    def summary(self) -> str:
        """One-paragraph execution report for interactive use."""
        lines = [
            f"{len(self.rows)} rows in {self.elapsed:.2f} model seconds "
            f"({self.mode} mode, {self.total_calls} web service calls)",
            *self._operation_lines(),
        ]
        if self.tree.processes_spawned:
            lines.append("  " + self._render_tree())
        if self.cache_stats is not None:
            lines.append("  " + self._render_cache())
        if self.message_stats.param_batches or self.message_stats.result_batches:
            lines.append("  " + self._render_batch())
        if self.fault_stats.any():
            lines.append("  " + self._render_faults())
        return "\n".join(lines)

    # -- the report surface ------------------------------------------------------

    def report(self, sections: list[str] | tuple[str, ...] | str | None = None) -> str:
        """Render named statistics sections from the result's counters.

        ``sections`` picks which to show (any of ``REPORT_SECTIONS``); the
        default shows every section the execution produced data for.
        """
        if sections is None:
            chosen = ["calls", "tree", "cache", "batch", "faults"]
            if self.spans is not None:
                chosen.append("critical_path")
        elif isinstance(sections, str):
            chosen = [sections]
        else:
            chosen = list(sections)
        lines = []
        for section in chosen:
            renderer = self._SECTION_RENDERERS.get(section)
            if renderer is None:
                known = ", ".join(REPORT_SECTIONS)
                raise ValueError(
                    f"unknown report section {section!r}; known sections: {known}"
                )
            lines.append(renderer(self))
        return "\n".join(lines)

    def _operation_lines(self) -> list[str]:
        """One indented line per called operation, sorted by name."""
        return [
            f"  {operation}: {stats.calls} calls, "
            f"mean {stats.total_time.mean:.3f}s, "
            f"queue {stats.queue_wait.mean:.3f}s"
            for operation, stats in sorted(self.call_stats.items())
        ]

    def _render_calls(self) -> str:
        return "\n".join(
            [
                f"calls: {self.total_calls} web service calls in "
                f"{self.elapsed:.2f} model seconds ({self.mode} mode)",
                *self._operation_lines(),
            ]
        )

    def _render_tree(self) -> str:
        tree = self.tree
        if not tree.processes_spawned:
            return "process tree: no child processes (central plan?)"
        return (
            f"process tree: {tree.processes_spawned} spawned, "
            f"{tree.processes_dropped} dropped, "
            f"avg fanouts {['%.1f' % f for f in tree.average_fanouts()]}"
        )

    def _render_cache(self) -> str:
        cache = self.cache_stats
        if cache is None:
            return "call cache: off"
        bags = f" ({cache.plan_hits} plan-function bags)" if cache.plan_hits else ""
        return (
            f"call cache: {cache.hits} hits{bags}, {cache.misses} misses, "
            f"{cache.collapsed} collapsed, {cache.evictions} evicted, "
            f"{cache.expirations} expired ({cache.hit_rate:.0%} hit rate, "
            f"{cache.calls_avoided} calls avoided)"
        )

    def _render_batch(self) -> str:
        messages = self.message_stats
        if not messages.total_messages:
            return "batching: no inter-process messages (central plan?)"
        parts = [
            f"messages: {messages.total_messages} "
            f"({messages.downlink_messages} down, {messages.uplink_messages} up)",
            f"param batches: {messages.param_batches} "
            f"carrying {messages.batched_params} tuples "
            f"(+{messages.param_tuples} singles)",
            f"result batches: {messages.result_batches} "
            f"carrying {messages.batched_results} rows "
            f"(+{messages.result_tuples} singles)",
        ]
        if messages.flushes:
            triggers = ", ".join(
                f"{trigger}={messages.flushes[trigger]}"
                for trigger in sorted(messages.flushes)
            )
            parts.append(f"flushes: {triggers}")
        return "; ".join(parts)

    def _render_faults(self) -> str:
        faults = self.fault_stats
        if not faults.any():
            return "faults: none"
        return (
            f"faults: {faults.failed_calls} failed calls, "
            f"{faults.redeliveries} redelivered, "
            f"{faults.skipped_rows} skipped, "
            f"{faults.respawns} children respawned, "
            f"{faults.breaker_trips} breaker trips"
        )

    def _render_critical_path(self) -> str:
        return self.critical_path().render()

    _SECTION_RENDERERS = {
        "calls": _render_calls,
        "tree": _render_tree,
        "cache": _render_cache,
        "batch": _render_batch,
        "faults": _render_faults,
        "critical_path": _render_critical_path,
    }

    # -- tracing accessors --------------------------------------------------------

    def critical_path(self) -> CriticalPathReport:
        """Critical-path analysis of a traced run (empty when untraced)."""
        return analyze_critical_path(self.spans if self.spans is not None else SpanStore())

    def chrome_trace(self) -> dict:
        """The traced run as a Chrome trace-event JSON object."""
        return to_chrome_trace(self.spans if self.spans is not None else SpanStore())

    def write_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path`` (open it in Perfetto)."""
        write_chrome_trace(self.spans if self.spans is not None else SpanStore(), path)


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
