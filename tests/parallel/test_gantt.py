"""Tests for the text gantt renderer."""

from repro.obs.spans import SpanStore, TraceRecorder
from repro.render import render_gantt

from tests.helpers import QUERY1_SQL, make_world
from tests.parallel.helpers_parallel import run_parallel


def broker_call(trace, process, operation, start, end, outcome="miss"):
    span = trace.start(operation, category="ws", process=process, at=start, operation=operation)
    trace.finish(span, at=end, outcome=outcome)


def trace_with_calls():
    trace = TraceRecorder()
    # q1 busy [0, 4], q2 busy [2, 6] of a 8-second horizon.
    broker_call(trace, "q1", "Op", 0.0, 4.0)
    broker_call(trace, "q2", "Op", 2.0, 6.0)
    broker_call(trace, "q2", "Other", 6.0, 8.0)
    return trace.store


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
    assert render_gantt(SpanStore()) == "(no service calls recorded)"


def test_gantt_process_cap() -> None:
    trace = TraceRecorder()
    for index in range(30):
        broker_call(trace, f"q{index}", "Op", 0.0, 1.0)
    text = render_gantt(trace.store, max_processes=5)
    assert "(25 more processes)" in text


def test_gantt_on_real_run() -> None:
    world = make_world()
    _, _, _, ctx = run_parallel(world, QUERY1_SQL, fanouts=[3, 2])
    text = render_gantt(ctx.run.obs.store, width=60)
    # Coordinator + 3 + 6 processes each made at least one call.
    assert len([l for l in text.splitlines() if "|" in l]) == 10
    assert "#" in text
