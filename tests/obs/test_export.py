"""Golden-file test for the Chrome trace-event exporter, plus structural
checks on real exported traces."""

import json
from pathlib import Path

from repro import QUERY1_SQL, QueryOptions, TraceRecorder, WSMED
from repro.obs.validate import validate_chrome_trace
from repro.render import to_chrome_trace, write_chrome_trace

GOLDEN = Path(__file__).parent / "golden_chrome_trace.json"


def _golden_store():
    """A tiny two-clock-domain trace with every event kind the exporter
    emits: metadata, complete spans, a cross-process flow, an instant."""
    rec = TraceRecorder()
    compile_root = rec.start(
        "compile:Q", category="compile", process="compiler", at=0.0, mode="parallel"
    )
    parse = rec.start(
        "parse", category="compile", parent=compile_root, process="compiler", at=0.0
    )
    rec.finish(parse, at=0.001)
    rec.finish(compile_root, at=0.002)
    query = rec.start(
        "query:Q", category="query", process="q0", at=0.0, mode="parallel"
    )
    invoke = rec.start(
        "invoke:PF1", category="invoke", parent=query, process="q0", at=0.1, children=2
    )
    call = rec.start("call#1", category="call", parent=invoke, process="q1", at=0.2)
    ws = rec.start(
        "GetPlaceList",
        category="ws",
        parent=call,
        process="q1",
        at=0.25,
        operation="GetPlaceList",
    )
    rec.instant("cycle", parent=invoke, process="q0", at=0.3, children=2)
    rec.finish(ws, at=0.9, outcome="ok")
    rec.finish(call, at=1.0, rows=3)
    rec.finish(invoke, at=1.5)
    rec.finish(query, at=2.0, rows=3)
    return rec.store


def test_chrome_export_matches_golden_file() -> None:
    """The export schema is a contract (Perfetto consumes it): any change
    must be deliberate — regenerate the golden file when it is."""
    exported = to_chrome_trace(_golden_store())
    golden = json.loads(GOLDEN.read_text())
    assert exported == golden


def test_golden_file_is_well_formed() -> None:
    assert validate_chrome_trace(json.loads(GOLDEN.read_text())) == []


def test_write_chrome_trace_roundtrips(tmp_path) -> None:
    path = tmp_path / "trace.json"
    write_chrome_trace(_golden_store(), str(path))
    assert json.loads(path.read_text()) == to_chrome_trace(_golden_store())


def test_real_query_export_is_well_formed(tmp_path) -> None:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], obs=TraceRecorder()),
    )
    payload = to_chrome_trace(result.spans)
    assert validate_chrome_trace(payload) == []
    # Both clock domains present: compile (pid 1) and execution (pid 2).
    pids = {ev["pid"] for ev in payload["traceEvents"] if ev["ph"] == "X"}
    assert pids == {1, 2}
    # Cross-process flows exist (shipped plan-function work).
    assert any(ev["ph"] == "s" for ev in payload["traceEvents"])
    write_chrome_trace(result.spans, str(tmp_path / "q1.json"))
    assert (tmp_path / "q1.json").exists()

