"""Every text and trace view of the system, as pure functions.

Results, engine stats, span stores and plans are data; this module turns
them into what a person or a trace viewer reads: the shell's row table,
the summary and ``\\stats`` sections, the engine's counters, the span
views (the process tree of Fig 4, utilization, gantt, critical path),
plan trees with their plan functions (Figs 6-13) and ``explain``, and
Chrome trace-event JSON.

The span views derive from the query's :class:`~repro.obs.spans.SpanStore`:

- a process's parent is the process of its first span whose parent lives
  in another process — the ``install`` instant of a child spawned by the
  query, the first ``call`` span of a warm child a resident engine leased
  into it — and that parent is the spawning pool's ``invoke`` span, which
  names the plan function;
- its ``calls``/``rows`` are its successful ``call`` spans and their rows;
- its busy time is its ``ws`` spans that reached the broker (outcome
  ``miss``);
- its lifetime runs from its ``spawn`` instant to its ``process_exit``
  instant, and from the ``query`` span's start or to its end where one is
  missing (a warm child was spawned by an earlier query and exits with its
  engine).

The Chrome trace follows the JSON-object flavour of the `Trace Event
Format`_ understood by Perfetto and ``chrome://tracing``:

- every finished span becomes an ``"X"`` (complete) event with ``ts``/``dur``
  in microseconds;
- instants become ``"i"`` events;
- cross-process parent links (a child call whose parent span lives in
  another query process) become ``"s"``/``"f"`` flow events so the arrows
  are drawn across track groups;
- ``"M"`` metadata events name the processes and threads.  Spans are
  grouped into Chrome "processes" by clock domain (compile spans use wall
  time, execution spans kernel time) and into "threads" by query-process
  name (``q0``, ``q1``, ...).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.algebra.plan import AFFApplyNode, FFApplyNode, PlanNode, walk
from repro.obs.critical_path import CriticalPathReport
from repro.obs.spans import Span, SpanStore
from repro.util.errors import ReproError

if TYPE_CHECKING:
    from repro.algebra.cost import NodeEstimate, PlanEstimate
    from repro.algebra.optimizer import OptimizerReport
    from repro.engine.engine import EngineStats
    from repro.wsmed.results import QueryResult

# -- a query's result ---------------------------------------------------------------


def render_table(result: QueryResult, max_rows: int = 20) -> str:
    """Align a result as a text table, truncated to ``max_rows``."""
    header = list(result.columns)
    shown = [tuple(str(value) for value in row) for row in result.rows[:max_rows]]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in shown)) if shown else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        " | ".join(name.ljust(widths[i]) for i, name in enumerate(header)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in shown:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    lines.append(
        f"({len(result.rows)} rows, {result.elapsed:.2f} model s, "
        f"{result.total_calls} web service calls, {result.mode} mode)"
    )
    return "\n".join(lines)


def render_summary(result: QueryResult) -> str:
    """One-paragraph execution report for interactive use."""
    lines = [
        f"{len(result.rows)} rows in {result.elapsed:.2f} model seconds "
        f"({result.mode} mode, {result.total_calls} web service calls)",
        *_operation_lines(result),
    ]
    if result.tree.processes_spawned:
        lines.append("  " + _tree(result))
    if result.cache_stats is not None:
        lines.append("  " + _cache(result))
    if result.message_stats.param_batches or result.message_stats.result_batches:
        lines.append("  " + _batch(result))
    if result.fault_stats.any():
        lines.append("  " + _faults(result))
    return "\n".join(lines)


def render_report(
    result: QueryResult, sections: list[str] | tuple[str, ...] | str | None = None
) -> str:
    """Named statistics sections of a result, from its counters.

    ``sections`` picks which to show (any of :data:`REPORT_SECTIONS`);
    the default shows every section the execution produced data for.
    """
    if sections is None:
        chosen = ["calls", "tree", "cache", "batch", "faults"]
        if result.spans is not None:
            chosen.append("critical_path")
    elif isinstance(sections, str):
        chosen = [sections]
    else:
        chosen = list(sections)
    lines = []
    for section in chosen:
        renderer = _SECTIONS.get(section)
        if renderer is None:
            known = ", ".join(REPORT_SECTIONS)
            raise ValueError(
                f"unknown report section {section!r}; known sections: {known}"
            )
        lines.append(renderer(result))
    return "\n".join(lines)


def _operation_lines(result: QueryResult) -> list[str]:
    """One indented line per called operation, sorted by name."""
    return [
        f"  {operation}: {stats.calls} calls, "
        f"mean {stats.total_time.mean:.3f}s, "
        f"queue {stats.queue_wait.mean:.3f}s"
        for operation, stats in sorted(result.call_stats.items())
    ]


def _parallel(result: QueryResult) -> bool:
    """Whether the result's plan has an ``FF_APPLYP``/``AFF_APPLYP`` node."""
    return result.plan is not None and any(
        isinstance(node, (FFApplyNode, AFFApplyNode)) for node in walk(result.plan)
    )


def _calls(result: QueryResult) -> str:
    return "\n".join(
        [
            f"calls: {result.total_calls} web service calls in "
            f"{result.elapsed:.2f} model seconds ({result.mode} mode)",
            *_operation_lines(result),
        ]
    )


def _tree(result: QueryResult) -> str:
    tree = result.tree
    if tree.processes_spawned:
        return (
            f"process tree: {tree.processes_spawned} spawned, "
            f"{tree.processes_dropped} dropped, "
            f"avg fanouts {['%.1f' % f for f in tree.average_fanouts()]}"
        )
    if _parallel(result):
        return (
            "process tree: no child processes spawned "
            "(parallel plan on a warm or unused tree)"
        )
    return "process tree: no child processes (central plan?)"


def _cache(result: QueryResult) -> str:
    cache = result.cache_stats
    if cache is None:
        return "call cache: off"
    bags = f" ({cache.plan_hits} plan-function bags)" if cache.plan_hits else ""
    return (
        f"call cache: {cache.hits} hits{bags}, {cache.misses} misses, "
        f"{cache.collapsed} collapsed, {cache.evictions} evicted, "
        f"{cache.expirations} expired ({cache.hit_rate:.0%} hit rate, "
        f"{cache.calls_avoided} calls avoided)"
    )


def _batch(result: QueryResult) -> str:
    messages = result.message_stats
    if not messages.total_messages:
        if _parallel(result):
            return (
                "batching: no inter-process messages "
                "(parallel plan; no tuple was dispatched)"
            )
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


def _faults(result: QueryResult) -> str:
    faults = result.fault_stats
    if not faults.any():
        return "faults: none"
    return (
        f"faults: {faults.failed_calls} failed calls, "
        f"{faults.redeliveries} redelivered, "
        f"{faults.skipped_rows} skipped, "
        f"{faults.respawns} children respawned, "
        f"{faults.breaker_trips} breaker trips"
    )


_SECTIONS = {
    "calls": _calls,
    "tree": _tree,
    "cache": _cache,
    "batch": _batch,
    "faults": _faults,
    "critical_path": lambda result: render_critical_path(result.critical_path()),
}
#: Section names accepted by :func:`render_report`, in display order.
REPORT_SECTIONS = tuple(_SECTIONS)

# -- the resident engine ------------------------------------------------------------


def render_engine_stats(stats: EngineStats | None) -> str:
    """The engine's counters (``\\stats engine``); ``None`` when the shell
    runs without a resident engine."""
    if stats is None:
        return (
            "resident engine: off (start with --engine to keep "
            "plans and process trees warm between queries)"
        )
    lines = [
        f"queries executed: {stats.queries} "
        f"(active {stats.active}, peak concurrency {stats.peak_concurrency}"
        f"/{stats.max_concurrency})",
        f"plan cache: {stats.plan_cache_hits} hits, "
        f"{stats.plan_cache_misses} misses, "
        f"{stats.plan_cache_entries} cached "
        f"({stats.plan_cache_evictions} evicted)",
        f"pools: {stats.warm_leases} warm leases, "
        f"{stats.cold_starts} cold starts, {stats.idle_pools} idle "
        f"({stats.pools_trimmed} trimmed, {stats.pools_closed} closed)",
        f"resident query processes: {stats.resident_processes}",
    ]
    if stats.admission_policy != "static":
        cap = (
            f"fanout cap {stats.admission_fanout_cap}"
            if stats.admission_fanout_cap
            else "no fanout cap"
        )
        lines.append(
            f"admission: {stats.admission_policy} limit "
            f"{stats.admission_limit}/{stats.max_concurrency}, "
            f"{stats.admission_shed} shed, {stats.admission_queued} queued "
            f"({stats.admission_raises} raises, "
            f"{stats.admission_backoffs} backoffs, p50 inflation "
            f"{stats.admission_inflation:.2f}x, {cap})"
        )
    if stats.reoptimizations or stats.observed_operations:
        lines.append(
            f"cost optimizer: {stats.observed_operations} operations "
            f"observed, {stats.reoptimizations} plans re-optimized"
        )
    if stats.sharing:
        lines.append(render_share_stats(stats))
    return "\n".join(lines)


def render_share_stats(stats: EngineStats | None) -> str:
    """The engine's multi-query sharing counters (``\\stats share``);
    ``None`` when the shell runs without a resident engine."""
    if stats is None:
        return (
            "sharing: off (start with --engine --share to dedup "
            "web-service calls across concurrent queries)"
        )
    if not stats.sharing:
        return "sharing: off (construct the engine with share=True)"
    return (
        f"call memo: {stats.memo_entries} entries\n"
        f"shared pools: {stats.shared_pool_leases} concurrent leases "
        f"({stats.pool_lease_waits} waits for a busy tree)"
    )


# -- a traced query's spans ---------------------------------------------------------


def _traced(spans: SpanStore | None) -> SpanStore:
    if spans is None:
        raise ReproError(
            "the query was not traced; run it with "
            "QueryOptions(obs=TraceRecorder()) to record its spans"
        )
    return spans


@dataclass
class ProcessNode:
    """One query process reconstructed from the spans."""

    name: str
    plan_function: str = ""
    calls: int = 0
    rows: int = 0
    dropped: bool = False
    children: list["ProcessNode"] = field(default_factory=list)


def _spawn_order(name: str) -> int:
    """Process names are ``q<n>``, numbered in spawn order."""
    return int(name[1:])


def _window(spans: SpanStore) -> tuple[float, float]:
    """The query's own interval: its ``query`` span, or, for a plan run
    without one (a bare executor), zero to the last recorded time."""
    for span in spans:
        if span.category == "query" and span.end is not None:
            return span.start, span.end
    return 0.0, max((span.end or span.start for span in spans), default=0.0)


def _broker_calls(spans: SpanStore) -> list[Span]:
    """The ``ws`` spans that made a real round trip."""
    return [
        span for span in spans
        if span.category == "ws" and span.attrs.get("outcome") == "miss"
    ]


def _links(spans: SpanStore) -> dict[str, Span]:
    """Process -> the parent of its first span whose parent is another
    process's ``invoke`` span (the spawning pool's), in spawn order."""
    links: dict[str, Span] = {}
    for span in spans:
        parent = spans.get(span.parent)
        if parent is not None and parent.category == "invoke" and parent.process != span.process:
            links.setdefault(span.process, parent)
    return {name: links[name] for name in sorted(links, key=_spawn_order)}


def build_process_tree(spans: SpanStore) -> ProcessNode:
    """Reconstruct the process tree (see the module docs)."""
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    dropped: set[str] = set()
    for span in spans:
        if span.category == "call" and "error" not in span.attrs:
            calls[span.process] = calls.get(span.process, 0) + 1
            rows[span.process] = rows.get(span.process, 0) + span.attrs.get("rows", 0)
        elif span.name == "drop_stage" and span.category == "adapt":
            dropped.add(span.attrs["dropped"])
    links = _links(spans)
    root = ProcessNode(name="q0", plan_function="coordinator")
    nodes = {"q0": root}
    for name, link in links.items():
        nodes[name] = ProcessNode(
            name=name,
            plan_function=link.attrs.get("plan_function", ""),
            calls=calls.get(name, 0),
            rows=rows.get(name, 0),
            dropped=name in dropped,
        )
    for name, link in links.items():
        parent = nodes.get(link.process)
        if parent is not None:
            parent.children.append(nodes[name])
    return root


def render_process_tree(spans: SpanStore | None) -> str:
    """ASCII rendering of a traced query's process tree (Fig 4 style)."""
    root = build_process_tree(_traced(spans))
    lines = [f"{root.name} (coordinator)"]

    def visit(node: ProcessNode, prefix: str) -> None:
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            suffix = " [dropped]" if child.dropped else ""
            lines.append(
                f"{prefix}{'└─ ' if last else '├─ '}{child.name} [{child.plan_function}] "
                f"calls={child.calls} rows={child.rows}{suffix}"
            )
            visit(child, prefix + ("   " if last else "│  "))

    visit(root, "")
    return "\n".join(lines)


@dataclass
class ProcessUtilization:
    """How one process spent its lifetime."""

    name: str
    lifetime: float
    busy: float
    calls: int

    @property
    def utilization(self) -> float:
        if self.lifetime <= 0:
            return 0.0
        return min(1.0, self.busy / self.lifetime)


def process_utilization(spans: SpanStore) -> dict[str, ProcessUtilization]:
    """Per-process busy fraction: broker-call time over process lifetime,
    for the coordinator and every process below it, in spawn order."""
    start, end = _window(spans)
    spawned: dict[str, float] = {}
    exited: dict[str, float] = {}
    for span in spans:
        if span.name == "spawn" and span.instant:
            spawned[span.attrs["child"]] = span.start
        elif span.name == "process_exit" and span.instant:
            exited[span.process] = span.start
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in _broker_calls(spans):
        busy[span.process] = busy.get(span.process, 0.0) + span.duration
        calls[span.process] = calls.get(span.process, 0) + 1
    return {
        name: ProcessUtilization(
            name=name,
            lifetime=max(0.0, exited.get(name, end) - spawned.get(name, start)),
            busy=busy.get(name, 0.0),
            calls=calls.get(name, 0),
        )
        for name in ("q0", *_links(spans))
    }


def render_utilization(spans: SpanStore | None, *, top: int = 12) -> str:
    """Text report of a traced query's busiest processes."""
    report = process_utilization(_traced(spans))
    ordered = sorted(report.values(), key=lambda u: u.busy, reverse=True)[:top]
    lines = [f"{'process':<8} {'calls':>6} {'busy(s)':>9} {'life(s)':>9} {'util':>6}"]
    for entry in ordered:
        lines.append(
            f"{entry.name:<8} {entry.calls:>6} {entry.busy:>9.1f} "
            f"{entry.lifetime:>9.1f} {entry.utilization:>6.0%}"
        )
    return "\n".join(lines)


def render_gantt(
    spans: SpanStore | None,
    *,
    width: int = 72,
    max_processes: int = 20,
    operation: str | None = None,
) -> str:
    """Text gantt of a traced query's broker-call activity per process.

    Each row is one query process; ``#`` cells mark instants where the
    process had a web-service call in flight, from the query's start to
    its last broker call's end.  Useful for *seeing* the pipelining of a small run; large
    runs should prefer :func:`render_utilization`.
    """
    spans = _traced(spans)
    origin, _ = _window(spans)
    horizon = 0.0
    calls: dict[str, list[tuple[float, float]]] = {}
    for span in _broker_calls(spans):
        if operation is None or span.attrs["operation"] == operation:
            calls.setdefault(span.process, []).append((span.start, span.end))
            horizon = max(horizon, span.end - origin)
    if not calls or horizon <= 0:
        return "(no service calls recorded)"
    scale = width / horizon
    lines = [f"0 {'-' * (width - 10)} {horizon:.1f}s"]
    for process in sorted(calls)[:max_processes]:
        cells = [" "] * width
        for start, stop in calls[process]:
            first = min(width - 1, int((start - origin) * scale))
            last = min(width - 1, max(first, int((stop - origin) * scale) - 1))
            for position in range(first, last + 1):
                cells[position] = "#"
        lines.append(f"{process:>6} |{''.join(cells)}|")
    if len(calls) > max_processes:
        lines.append(f"... ({len(calls) - max_processes} more processes)")
    return "\n".join(lines)


def render_critical_path(report: CriticalPathReport) -> str:
    """The critical chain, one indented line per span, then the per-level
    busy time and the bottleneck service."""
    if not report.path:
        return "critical path: no spans recorded (run with tracing enabled)"
    lines = [f"critical path: {report.total:.3f}s over {len(report.path)} spans"]
    for depth, span in enumerate(report.path):
        indent = "  " * min(depth, 8)
        lines.append(f"  {indent}{span.name} [{span.category}] {span.duration:.3f}s")
    for level in report.levels:
        slowest = level.slowest_operation or "-"
        lines.append(
            f"level {level.level}: {level.calls} ws calls, "
            f"{level.busy:.3f}s busy, slowest service: {slowest}"
        )
    bottleneck = report.slowest_level
    if bottleneck is not None and bottleneck.slowest_operation:
        lines.append(
            f"bottleneck: {bottleneck.slowest_operation} "
            f"at level {bottleneck.level} "
            f"({bottleneck.busy:.3f}s total busy time)"
        )
    return "\n".join(lines)


# -- plans and explain --------------------------------------------------------------


def render_plan(
    node: PlanNode,
    *,
    indent: int = 0,
    annotations: dict[int, str] | None = None,
) -> str:
    """Indented textual plan tree, top operator first (like Figs 6-13).

    Plan functions referenced by ``FF_APPLYP``/``AFF_APPLYP`` nodes are
    rendered inline, indented under the operator, so the full shipped code
    is visible in ``explain`` output.

    ``annotations`` optionally maps ``id(node)`` to a suffix string — the
    cost-based explain uses it to show per-operator estimates.
    """
    pad = "  " * indent
    suffix = annotations.get(id(node), "") if annotations else ""
    lines = [f"{pad}{node.label()}  : <{', '.join(node.schema)}>{suffix}"]
    if isinstance(node, (FFApplyNode, AFFApplyNode)):
        function = node.plan_function
        lines.append(f"{pad}  plan function {function.signature()}")
        lines.append(render_plan(function.body, indent=indent + 2, annotations=annotations))
    for child in node.children():
        lines.append(render_plan(child, indent=indent + 1, annotations=annotations))
    return "\n".join(lines)


def _estimate_lines(estimate: PlanEstimate) -> list[str]:
    """The two lines every explain report prints per plan estimate."""
    return [
        "web service calls: "
        + ", ".join(
            f"{op}={calls:.0f}" for op, calls in sorted(estimate.calls.items())
        ),
        f"sequential time: ~{estimate.sequential_time:.1f} s",
    ]


def render_explain(calculus, plan: PlanNode, estimate: PlanEstimate) -> str:
    """The heuristic ``explain`` report: calculus, plan tree, estimate."""
    return "\n".join(
        [
            "-- calculus --",
            calculus.to_text(),
            "",
            "-- plan --",
            render_plan(plan),
            "",
            "-- estimate --",
            *_estimate_lines(estimate),
        ]
    )


def render_cost_explain(
    calculus,
    plan: PlanNode,
    nodes: dict[int, NodeEstimate],
    report: OptimizerReport | None,
    heuristic: tuple[PlanNode, PlanEstimate] | Exception,
) -> str:
    """The cost-based ``explain`` report: the chosen plan annotated with
    its per-operator estimates (``nodes``, keyed by ``id(node)``), the
    optimizer's decisions, and the heuristic plan it was compared against
    — or the error that kept the heuristic pipeline from planning."""
    annotations = {
        node_id: (
            f"  -- in≈{e.input_cardinality:.1f} out≈{e.output_cardinality:.1f}"
            + (f" calls≈{e.calls:.0f} time≈{e.time:.1f}s" if e.calls else "")
        )
        for node_id, e in nodes.items()
    }
    sections = [
        "-- calculus --",
        calculus.to_text(),
        "",
        "-- cost-based plan --",
        render_plan(plan, annotations=annotations),
        "",
        "-- optimizer --",
        render_optimizer_report(report) if report is not None else "(no report)",
    ]
    estimate = report.estimate if report is not None else None
    if estimate is not None:
        sections += ["", "-- estimate (cost-based) --", *_estimate_lines(estimate)]
    sections += ["", "-- heuristic plan --"]
    if isinstance(heuristic, Exception):
        sections.append(f"(not plannable without rewrites: {heuristic})")
        return "\n".join(sections)
    heuristic_plan, heuristic_estimate = heuristic
    sections.append(render_plan(heuristic_plan))
    sections += ["", "-- estimate (heuristic) --", *_estimate_lines(heuristic_estimate)]
    if estimate is not None and heuristic_estimate.sequential_time > 0:
        ratio = estimate.sequential_time / heuristic_estimate.sequential_time
        sections.append(
            f"cost-based vs heuristic: {ratio:.2f}x estimated sequential time"
        )
    return "\n".join(sections)


def render_optimizer_report(report: OptimizerReport) -> str:
    """What the cost-based optimizer decided, and why: each component's
    chosen order (and the heuristic one where it differs), the join
    shape, and every access-path rewrite with its reason."""
    lines = []
    for index, choice in enumerate(report.components):
        order = " -> ".join(choice.functions)
        lines.append(
            f"component {index} [{choice.strategy}, "
            f"{choice.subsets_explored} subsets]: {order} "
            f"(est {choice.estimated_cost:.3f}s)"
        )
        if (
            choice.heuristic_cost is not None
            and choice.functions != choice.heuristic_functions
        ):
            heuristic = " -> ".join(choice.heuristic_functions)
            lines.append(
                f"  heuristic order: {heuristic} "
                f"(est {choice.heuristic_cost:.3f}s)"
            )
    if report.join_shape:
        lines.append(f"join shape [{report.join_strategy}]: {report.join_shape}")
    for rewrite in report.rewrites:
        block = [
            f"{rewrite.alias}: {rewrite.original} -> {rewrite.replacement}",
            f"  because {rewrite.reason}",
            *(f"  input {binding}" for binding in rewrite.bound_from),
        ]
        if rewrite.produced:
            block.append(f"  now produces: {', '.join(rewrite.produced)}")
        lines.append("rewrite " + "\n".join(block).replace("\n", "\n  "))
    return "\n".join(lines)


# -- Chrome trace-event JSON --------------------------------------------------------

# Chrome pid values per clock domain.  Compile-phase spans run on the wall
# clock outside kernel.run(); keeping them in their own pid group means the
# two clock domains never share a timeline track.
PID_COMPILE = 1
PID_EXECUTION = 2
_PID_NAMES = {PID_COMPILE: "compile", PID_EXECUTION: "execution"}


def _pid(span: Span) -> int:
    return PID_COMPILE if span.category == "compile" else PID_EXECUTION


def _us(seconds: float) -> int:
    return round(seconds * 1_000_000)


def to_chrome_trace(store: SpanStore) -> dict[str, Any]:
    """A span store as a Chrome trace-event JSON object."""
    events: list[dict[str, Any]] = []

    # Deterministic tid per (pid, process name): sorted name order.
    tids: dict[tuple[int, str], int] = {}
    for pid, name in sorted({(_pid(s), s.process or "q0") for s in store}):
        tids[(pid, name)] = sum(1 for key in tids if key[0] == pid) + 1

    for pid in sorted({pid for pid, _ in tids}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _PID_NAMES[pid]},
            }
        )
    for (pid, name), tid in sorted(tids.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    def locate(span: Span) -> tuple[int, int]:
        pid = _pid(span)
        return pid, tids[(pid, span.process or "q0")]

    flow_id = 0
    for span in store:
        pid, tid = locate(span)
        args = {"span_id": span.id, "parent": span.parent}
        args.update(span.attrs)
        if span.instant:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "i",
                    "s": "t",
                    "ts": _us(span.start),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        if span.end is None:
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": max(_us(span.end) - _us(span.start), 0),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        parent = store.get(span.parent) if span.parent != -1 else None
        if parent is not None and parent.process != span.process:
            # Cross-process parent link: draw a flow arrow from the parent
            # span's start to the child span's start.
            flow_id += 1
            ppid, ptid = locate(parent)
            link = {"cat": "flow", "name": "link", "id": flow_id}
            events.append(
                {
                    **link,
                    "ph": "s",
                    "ts": _us(parent.start),
                    "pid": ppid,
                    "tid": ptid,
                }
            )
            events.append(
                {
                    **link,
                    "ph": "f",
                    "bp": "e",
                    "ts": _us(span.start),
                    "pid": pid,
                    "tid": tid,
                }
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(store: SpanStore, path: str) -> None:
    """Write :func:`to_chrome_trace` to ``path`` (open it in Perfetto)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(store), fh, indent=1)
        fh.write("\n")
