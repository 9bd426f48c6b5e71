"""Tests for seeded RNG derivation and the structured trace log."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_rng, stable_hash
from repro.util.trace import TraceLog


def test_stable_hash_is_deterministic() -> None:
    assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)


def test_stable_hash_distinguishes_labels() -> None:
    assert stable_hash(7, "latency") != stable_hash(7, "geodata")


def test_stable_hash_order_matters() -> None:
    assert stable_hash("a", "b") != stable_hash("b", "a")


def test_derive_rng_reproducible_streams() -> None:
    first = [derive_rng(42, "x").random() for _ in range(5)]
    second = [derive_rng(42, "x").random() for _ in range(5)]
    assert first == second


def test_derive_rng_independent_streams() -> None:
    a = derive_rng(42, "a").random()
    b = derive_rng(42, "b").random()
    assert a != b


@given(seed=st.integers(), label=st.text(max_size=20))
@settings(max_examples=50)
def test_derive_rng_never_crashes_and_is_stable(seed, label) -> None:
    assert derive_rng(seed, label).random() == derive_rng(seed, label).random()


def test_trace_log_record_and_filter() -> None:
    log = TraceLog()
    log.record(1.0, "spawn", process="q1")
    log.record(2.0, "add_stage", added=2)
    log.record(3.0, "spawn", process="q2")
    assert len(log) == 3
    assert [event.data["process"] for event in log.events("spawn")] == ["q1", "q2"]
    assert len(log.events("add_stage")) == 1


def test_trace_events_without_filter_returns_copy() -> None:
    log = TraceLog()
    log.record(0.0, "x")
    events = log.events()
    events.clear()
    assert len(log) == 1
