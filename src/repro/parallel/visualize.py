"""Process-tree and timeline views of an execution's event log.

The events a traced run records (spawn / install / process_exit /
service_call / adaptation) are enough to reconstruct what the process
tree of Fig 4 actually looked like and what each process spent its time
on.  These renderers power ``QueryResult.process_tree()``, the
CLI's ``\\tree`` command and the utilization benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.trace import TraceLog


@dataclass
class ProcessNode:
    """One query process reconstructed from the trace."""

    name: str
    plan_function: str = ""
    spawned_at: float = 0.0
    exited_at: float | None = None
    calls: int = 0
    rows: int = 0
    dropped: bool = False
    children: list["ProcessNode"] = field(default_factory=list)

    def total_processes(self) -> int:
        return 1 + sum(child.total_processes() for child in self.children)


def build_process_tree(trace: TraceLog, root_name: str = "q0") -> ProcessNode:
    """Reconstruct the process tree from spawn/exit/drop events."""
    root = ProcessNode(name=root_name, plan_function="coordinator")
    nodes: dict[str, ProcessNode] = {root_name: root}
    for event in trace:
        if event.kind == "spawn":
            node = ProcessNode(
                name=event.data["process"],
                plan_function=event.data["plan_function"],
                spawned_at=event.time,
            )
            nodes[node.name] = node
            parent = nodes.get(event.data["parent"])
            if parent is not None:
                parent.children.append(node)
        elif event.kind == "process_exit":
            node = nodes.get(event.data["process"])
            if node is not None:
                node.exited_at = event.time
                node.calls = event.data.get("calls", 0)
                node.rows = event.data.get("rows", 0)
        elif event.kind == "drop_stage":
            node = nodes.get(event.data["dropped"])
            if node is not None:
                node.dropped = True
    return root


def render_process_tree(trace: TraceLog, root_name: str = "q0") -> str:
    """ASCII rendering of the process tree (Fig 4 style)."""
    root = build_process_tree(trace, root_name)
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


def process_utilization(
    trace: TraceLog, *, end_time: float | None = None
) -> dict[str, ProcessUtilization]:
    """Per-process busy fraction: service-call time over process lifetime.

    Requires the ``service_call`` events the OWF wrapper records.  The
    coordinator (q0) is included; its lifetime spans the whole run.
    """
    spawned: dict[str, float] = {"q0": 0.0}
    exited: dict[str, float] = {}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    last_event = 0.0
    for event in trace:
        last_event = max(last_event, event.time)
        if event.kind == "spawn":
            spawned[event.data["process"]] = event.time
        elif event.kind == "process_exit":
            exited[event.data["process"]] = event.time
        elif event.kind == "service_call":
            process = event.data["process"]
            busy[process] = busy.get(process, 0.0) + event.data["duration"]
            calls[process] = calls.get(process, 0) + 1
    horizon = end_time if end_time is not None else last_event
    report: dict[str, ProcessUtilization] = {}
    for name, started in spawned.items():
        ended = exited.get(name, horizon)
        report[name] = ProcessUtilization(
            name=name,
            lifetime=max(0.0, ended - started),
            busy=busy.get(name, 0.0),
            calls=calls.get(name, 0),
        )
    return report


def render_gantt(
    trace: TraceLog,
    *,
    width: int = 72,
    max_processes: int = 20,
    operation: str | None = None,
) -> str:
    """Text gantt of service-call activity per process.

    Each row is one query process; ``#`` cells mark instants where the
    process had a web-service call in flight.  Useful for *seeing* the
    pipelining of a small run; large runs should prefer
    :func:`process_utilization`.
    """
    calls: dict[str, list[tuple[float, float]]] = {}
    horizon = 0.0
    for event in trace.events("service_call"):
        if operation is not None and event.data["operation"] != operation:
            continue
        start = event.time - event.data["duration"]
        calls.setdefault(event.data["process"], []).append((start, event.time))
        horizon = max(horizon, event.time)
    if not calls or horizon <= 0:
        return "(no service calls recorded)"
    scale = width / horizon
    lines = [f"0 {'-' * (width - 10)} {horizon:.1f}s"]
    for process in sorted(calls)[:max_processes]:
        cells = [" "] * width
        for start, end in calls[process]:
            first = min(width - 1, int(start * scale))
            last = min(width - 1, max(first, int(end * scale) - 1))
            for position in range(first, last + 1):
                cells[position] = "#"
        lines.append(f"{process:>6} |{''.join(cells)}|")
    if len(calls) > max_processes:
        lines.append(f"... ({len(calls) - max_processes} more processes)")
    return "\n".join(lines)


def render_utilization(trace: TraceLog, *, top: int = 12) -> str:
    """Text report of the busiest processes."""
    report = process_utilization(trace)
    ordered = sorted(report.values(), key=lambda u: u.busy, reverse=True)[:top]
    lines = [f"{'process':<8} {'calls':>6} {'busy(s)':>9} {'life(s)':>9} {'util':>6}"]
    for entry in ordered:
        lines.append(
            f"{entry.name:<8} {entry.calls:>6} {entry.busy:>9.1f} "
            f"{entry.lifetime:>9.1f} {entry.utilization:>6.0%}"
        )
    return "\n".join(lines)
