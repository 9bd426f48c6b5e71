"""Tests for the text gantt renderer."""

from repro.util.trace import TraceLog
from repro.parallel.visualize import render_gantt

from tests.helpers import QUERY1_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


def trace_with_calls():
    trace = TraceLog()
    # q1 busy [0, 4], q2 busy [2, 6] of a 8-second horizon.
    trace.record(4.0, "service_call", process="q1", operation="Op", duration=4.0)
    trace.record(6.0, "service_call", process="q2", operation="Op", duration=4.0)
    trace.record(8.0, "service_call", process="q2", operation="Other", duration=2.0)
    return trace


def test_gantt_marks_busy_intervals() -> None:
    text = render_gantt(trace_with_calls(), width=40)
    lines = text.splitlines()
    assert lines[0].startswith("0 ")
    assert lines[0].endswith("8.0s")
    q1 = next(line for line in lines if line.strip().startswith("q1"))
    bar = q1.split("|")[1]
    # Busy in the first half, idle in the second.
    assert "#" in bar[:20]
    assert "#" not in bar[30:]


def test_gantt_operation_filter() -> None:
    text = render_gantt(trace_with_calls(), width=40, operation="Other")
    assert "q1" not in text
    assert "q2" in text


def test_gantt_empty_trace() -> None:
    assert render_gantt(TraceLog()) == "(no service calls recorded)"


def test_gantt_process_cap() -> None:
    trace = TraceLog()
    for index in range(30):
        trace.record(
            1.0, "service_call", process=f"q{index}", operation="Op", duration=1.0
        )
    text = render_gantt(trace, max_processes=5)
    assert "(25 more processes)" in text


def test_gantt_on_real_run() -> None:
    world = make_world()
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[3, 2])
    text = render_gantt(ctx.run.obs.events, width=60)
    # Coordinator + 3 + 6 processes each made at least one call.
    assert len([l for l in text.splitlines() if "|" in l]) == 10
    assert "#" in text
