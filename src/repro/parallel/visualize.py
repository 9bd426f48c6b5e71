"""Process-tree and timeline views of a traced query's spans.

Every view derives from the query's :class:`~repro.obs.spans.SpanStore`:

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

These renderers power ``QueryResult.process_tree()`` / ``utilization()``
and the CLI's ``\\tree``, ``\\util`` and ``\\gantt`` commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import Span, SpanStore


@dataclass
class ProcessNode:
    """One query process reconstructed from the spans."""

    name: str
    plan_function: str = ""
    calls: int = 0
    rows: int = 0
    dropped: bool = False
    children: list["ProcessNode"] = field(default_factory=list)

    def total_processes(self) -> int:
        return 1 + sum(child.total_processes() for child in self.children)


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


def build_process_tree(spans: SpanStore, root_name: str = "q0") -> ProcessNode:
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
    root = ProcessNode(name=root_name, plan_function="coordinator")
    nodes = {root_name: root}
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


def render_process_tree(spans: SpanStore, root_name: str = "q0") -> str:
    """ASCII rendering of the process tree (Fig 4 style)."""
    root = build_process_tree(spans, root_name)
    lines: list[str] = []

    def visit(node: ProcessNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(f"{node.name} (coordinator)")
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            suffix = " [dropped]" if node.dropped else ""
            lines.append(
                f"{prefix}{connector}{node.name} [{node.plan_function}] "
                f"calls={node.calls} rows={node.rows}{suffix}"
            )
            child_prefix = prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(node.children):
            visit(child, child_prefix, index == len(node.children) - 1, False)

    visit(root, "", True, True)
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


def render_gantt(
    spans: SpanStore,
    *,
    width: int = 72,
    max_processes: int = 20,
    operation: str | None = None,
) -> str:
    """Text gantt of broker-call activity per process.

    Each row is one query process; ``#`` cells mark instants where the
    process had a web-service call in flight, from the query's start to
    its last broker call's end.  Useful for *seeing* the pipelining of a small run; large
    runs should prefer :func:`process_utilization`.
    """
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


def render_utilization(spans: SpanStore, *, top: int = 12) -> str:
    """Text report of the busiest processes."""
    report = process_utilization(spans)
    ordered = sorted(report.values(), key=lambda u: u.busy, reverse=True)[:top]
    lines = [f"{'process':<8} {'calls':>6} {'busy(s)':>9} {'life(s)':>9} {'util':>6}"]
    for entry in ordered:
        lines.append(
            f"{entry.name:<8} {entry.calls:>6} {entry.busy:>9.1f} "
            f"{entry.lifetime:>9.1f} {entry.utilization:>6.0%}"
        )
    return "\n".join(lines)
