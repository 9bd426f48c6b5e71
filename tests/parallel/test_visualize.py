"""Tests for process-tree reconstruction and utilization analysis."""

import pytest

from repro.render import (
    build_process_tree,
    process_utilization,
    render_process_tree,
    render_utilization,
)
from repro.obs.spans import SpanStore, TraceRecorder

from tests.helpers import QUERY1_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


def count_processes(node) -> int:
    return 1 + sum(count_processes(child) for child in node.children)


def peak_concurrency(spans: SpanStore, operation: str | None = None) -> int:
    """Maximum number of overlapping broker calls (optionally one op)."""
    points: list[tuple[float, int]] = []
    for span in spans.by_category("ws"):
        if span.attrs["outcome"] != "miss":
            continue
        if operation is not None and span.attrs["operation"] != operation:
            continue
        points.append((span.start, 1))
        points.append((span.end, -1))
    points.sort()
    peak = current = 0
    for _, delta in points:
        current += delta
        peak = max(peak, current)
    return peak


@pytest.fixture(scope="module")
def query1_trace():
    world = make_world()
    _, kernel, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[3, 2])
    return ctx.run.obs.store, kernel.now()


def test_tree_reconstruction_matches_fanouts(query1_trace) -> None:
    trace, _ = query1_trace
    root = build_process_tree(trace)
    assert root.name == "q0"
    assert len(root.children) == 3  # fo1
    for level1 in root.children:
        assert level1.plan_function == "PF1"
        assert len(level1.children) == 2  # fo2
        for level2 in level1.children:
            assert level2.plan_function == "PF2"
    assert count_processes(root) == 1 + 3 + 6


def test_tree_carries_call_counts(query1_trace) -> None:
    trace, _ = query1_trace
    root = build_process_tree(trace)
    # Level-one processes together handled all 50 states.
    assert sum(child.calls for child in root.children) == 50
    # Level-two processes together handled all 260 place lookups.
    assert sum(
        grandchild.calls
        for child in root.children
        for grandchild in child.children
    ) == 260


def test_render_tree_text(query1_trace) -> None:
    trace, _ = query1_trace
    text = render_process_tree(trace)
    assert text.startswith("q0 (coordinator)")
    assert "[PF1]" in text and "[PF2]" in text
    assert "├─" in text and "└─" in text
    assert len(text.splitlines()) == 10


def test_utilization_report(query1_trace) -> None:
    trace, end = query1_trace
    report = process_utilization(trace)
    # Without a query span the run's window is [0, last recorded time].
    assert report["q0"].lifetime == end
    # The coordinator made exactly one service call (GetAllStates).
    assert report["q0"].calls == 1
    # Every process's utilization is a valid fraction.
    assert all(0.0 <= entry.utilization <= 1.0 for entry in report.values())
    # Level-two processes did most of the call work.
    busiest = max(report.values(), key=lambda u: u.busy)
    assert busiest.name != "q0"


def test_peak_concurrency_bounded_by_workers(query1_trace) -> None:
    trace, _ = query1_trace
    peak_level2 = peak_concurrency(trace, "GetPlaceList")
    assert 1 <= peak_level2 <= 6  # at most fo1*fo2 workers
    assert peak_concurrency(trace, "GetAllStates") == 1
    assert peak_concurrency(trace) >= peak_level2


def test_render_utilization_table(query1_trace) -> None:
    trace, _ = query1_trace
    text = render_utilization(trace, top=5)
    lines = text.splitlines()
    assert lines[0].split() == ["process", "calls", "busy(s)", "life(s)", "util"]
    assert len(lines) == 6


def test_dropped_children_marked() -> None:
    trace = TraceRecorder()
    invoke = trace.start("invoke:PF1", category="invoke", process="q0", at=0.0, plan_function="PF1")
    trace.instant("install", parent=invoke, process="q1", at=0.0, plan_function="PF1")
    trace.instant(
        "drop_stage", category="adapt", parent=invoke, process="q0", at=1.0, dropped="q1"
    )
    text = render_process_tree(trace.store)
    assert "[dropped]" in text


def test_empty_trace_renders_coordinator_only() -> None:
    assert render_process_tree(SpanStore()) == "q0 (coordinator)"
    assert peak_concurrency(SpanStore()) == 0
