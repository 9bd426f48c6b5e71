"""Tests for fanout vectors and the tree-statistics oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.tree import FanoutVector
from repro.util.errors import PlanError
from repro.util.trace import TraceLog

from tests.stats_oracle import tree_stats_from_trace


def test_total_processes_two_levels() -> None:
    # N = fo1 + fo1*fo2 (paper Sec. V).
    assert FanoutVector((5, 4)).total_processes() == 25
    assert FanoutVector((4, 3)).total_processes() == 16
    assert FanoutVector((2, 3)).total_processes() == 8


def test_total_processes_flat_and_deep() -> None:
    assert FanoutVector((6, 0)).total_processes() == 6
    assert FanoutVector((2, 2, 2)).total_processes() == 2 + 4 + 8


def test_shape_predicates() -> None:
    assert FanoutVector((5, 0)).is_flat()
    assert not FanoutVector((5, 4)).is_flat()
    assert FanoutVector((4, 4)).is_balanced()
    assert not FanoutVector((5, 4)).is_balanced()


def test_str_form() -> None:
    assert str(FanoutVector((5, 4))) == "{5, 4}"


def test_validation() -> None:
    with pytest.raises(PlanError):
        FanoutVector(())
    with pytest.raises(PlanError):
        FanoutVector((0, 2))
    with pytest.raises(PlanError):
        FanoutVector((2, -1))


@given(
    fanouts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)
)
@settings(max_examples=50)
def test_total_processes_matches_direct_computation(fanouts) -> None:
    vector = FanoutVector(tuple(fanouts))
    total = 0
    layer = 1
    for fanout in fanouts:
        layer *= fanout
        total += layer
    assert vector.total_processes() == total


def test_tree_stats_from_trace() -> None:
    trace = TraceLog()
    trace.record(0.0, "spawn", parent="q0", process="q1", plan_function="PF1")
    trace.record(0.0, "spawn", parent="q0", process="q2", plan_function="PF1")
    trace.record(1.0, "spawn", parent="q1", process="q3", plan_function="PF2")
    trace.record(1.0, "spawn", parent="q1", process="q4", plan_function="PF2")
    trace.record(2.0, "add_stage", process="q0", plan_function="PF1", added=1)
    trace.record(2.0, "spawn", parent="q0", process="q5", plan_function="PF1")
    trace.record(3.0, "drop_stage", process="q0", plan_function="PF1", dropped="q5")
    stats = tree_stats_from_trace(trace)
    assert stats.processes_spawned == 5
    assert stats.processes_dropped == 1
    assert stats.add_stages == 1
    assert stats.drop_stages == 1
    assert stats.fanout_by_level["PF1"] == 2.0  # 3 spawned, 1 dropped
    assert stats.fanout_by_level["PF2"] == 2.0
    assert stats.pools_by_level == {"PF1": 1, "PF2": 1}
    assert stats.average_fanouts() == [2.0, 2.0]


def test_tree_stats_empty_trace() -> None:
    stats = tree_stats_from_trace(TraceLog())
    assert stats.processes_spawned == 0
    assert stats.average_fanouts() == []
