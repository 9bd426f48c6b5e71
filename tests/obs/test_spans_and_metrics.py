"""Unit tests for the observability primitives: spans and validation."""

import pytest

from repro.obs import (
    NULL_RECORDER,
    Span,
    SpanStore,
    TraceRecorder,
    validate_spans,
)


# -- recorder -----------------------------------------------------------------


def test_null_recorder_is_disabled_and_inert() -> None:
    assert NULL_RECORDER.enabled is False
    assert NULL_RECORDER.store is None
    assert NULL_RECORDER.start("anything", category="ws") == -1
    NULL_RECORDER.finish(-1)  # no-ops, no store mutated
    NULL_RECORDER.instant("event")


def test_recorder_builds_a_tree() -> None:
    recorder = TraceRecorder()
    root = recorder.start("query", category="query", at=0.0)
    child = recorder.start("call", category="call", parent=root, at=1.0)
    recorder.finish(child, at=2.0, rows=3)
    recorder.finish(root, at=5.0)
    store = recorder.store
    assert len(store) == 2
    assert store.get(child).parent == root
    assert store.get(child).duration == pytest.approx(1.0)
    assert store.get(child).attrs["rows"] == 3
    assert [span.id for span in store.roots()] == [root]
    assert store.children(root) == [store.get(child)]
    assert validate_spans(store) == []


def test_finish_is_idempotent() -> None:
    recorder = TraceRecorder()
    span = recorder.start("s", at=0.0)
    recorder.finish(span, at=1.0)
    recorder.finish(span, at=9.0)  # second finish must not move the end
    assert recorder.store.get(span).end == pytest.approx(1.0)


def test_finish_of_minus_one_is_safe() -> None:
    recorder = TraceRecorder()
    recorder.finish(-1)  # the "no open span" sentinel
    assert len(recorder.store) == 0


def test_instants_are_zero_length_events() -> None:
    recorder = TraceRecorder()
    root = recorder.start("query", at=0.0)
    recorder.instant("cycle", parent=root, at=0.5, children=3)
    recorder.finish(root, at=1.0)
    instants = [span for span in recorder.store if span.instant]
    assert len(instants) == 1
    assert instants[0].attrs["children"] == 3
    assert validate_spans(recorder.store) == []


# -- validation ---------------------------------------------------------------


def test_validator_catches_unfinished_and_orphan_spans() -> None:
    store = SpanStore()
    store.add(Span(id=1, name="open", category="x", process="p", start=0.0))
    store.add(
        Span(
            id=2,
            name="orphan",
            category="x",
            process="p",
            start=0.0,
            end=1.0,
            parent=99,
        )
    )
    problems = validate_spans(store)
    assert any("never finished" in p for p in problems)
    assert any("unresolved parent" in p for p in problems)


def test_validator_catches_child_escaping_parent() -> None:
    store = SpanStore()
    store.add(Span(id=1, name="parent", category="x", process="p", start=0.0, end=1.0))
    store.add(
        Span(
            id=2,
            name="child",
            category="x",
            process="p",
            start=0.5,
            end=2.0,
            parent=1,
        )
    )
    assert any("closes after parent" in p for p in validate_spans(store))
