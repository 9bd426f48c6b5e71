"""Faults are visible in a traced query's spans and its Chrome export.

A pool records ``call_failed``, ``redeliver`` and ``respawn`` as instants
under its invocation span, so the trace a fault-injected query writes
shows every fault where it happened, and the instants count what
``QueryResult.fault_stats`` counts.
"""

import pytest

from repro import (
    QUERY1_SQL,
    FaultInjection,
    ProcessKernel,
    QueryOptions,
    TraceRecorder,
    WSMED,
)
from repro.obs.validate import main as validate_main, validate_spans
from repro.render import write_chrome_trace

FAULTY = QueryOptions(
    mode="parallel",
    fanouts=[5, 4],
    on_error="retry",
    faults=FaultInjection(call_failure_probability=0.1, crash_probability=0.02),
)
KERNELS = {"sim": lambda: None, "process": lambda: ProcessKernel(workers=1)}
# Span-nesting problems in time: on ProcessKernel the worker clocks are not
# the coordinator's; on any kernel a call still in flight when its pool
# abandons the invocation (a failed row ran out of redeliveries) ends after
# the invocation span did.
NESTING = ("closes after parent", "starts before parent")


@pytest.fixture(scope="module", params=KERNELS)
def faulty_result(request):
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    kernel = KERNELS[request.param]()
    try:
        result = wsmed.sql(QUERY1_SQL, options=FAULTY.replace(kernel=kernel, obs=TraceRecorder()))
    finally:
        if kernel is not None:
            kernel.shutdown()
    return request.param, result


def instants(result, name: str) -> list:
    return [span for span in result.spans.find(name) if span.instant]


def test_fault_instants_count_the_fault_stats(faulty_result) -> None:
    _, result = faulty_result
    assert len(result.rows) == 360
    stats = result.fault_stats
    assert stats.failed_calls > 0 and stats.redeliveries > 0 and stats.respawns > 0
    assert len(instants(result, "call_failed")) == stats.failed_calls
    assert len(instants(result, "redeliver")) == stats.redeliveries
    assert len(instants(result, "respawn")) == stats.respawns
    for span in instants(result, "call_failed") + instants(result, "respawn"):
        assert result.spans.get(span.parent).category == "invoke"


def test_fault_trace_is_well_formed(faulty_result) -> None:
    kernel, result = faulty_result
    spans = result.spans
    problems = validate_spans(spans)
    nesting = [problem for problem in problems if any(marker in problem for marker in NESTING)]
    # Crashed children's call spans close too: nothing is left open,
    # unresolved or duplicated.
    assert [problem for problem in problems if problem not in nesting] == []
    if kernel == "sim":
        late = [
            span for span in spans.by_category("call")
            if span.end > spans.get(span.parent).end + 1e-6
        ]
        assert len(nesting) == len(late)
        for span in late:  # only an abandoned invocation ends before its calls
            assert "error" in spans.get(spans.get(span.parent).parent).attrs


def test_fault_trace_exports_a_valid_chrome_trace(faulty_result, tmp_path, capsys) -> None:
    _, result = faulty_result
    path = tmp_path / "faults.trace.json"
    write_chrome_trace(result.spans, str(path))
    assert validate_main([str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok:")
