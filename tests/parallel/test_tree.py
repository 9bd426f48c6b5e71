"""Tests for process-tree shapes and the tree-statistics oracle.

A manual tree ``{fo1, fo2, ...}`` spawns ``N = fo1 + fo1*fo2 + ...``
query processes (paper Sec. V); a trailing 0 fuses its level into the
previous one (flat tree, Fig 14).  The counts below are what real runs
spawn.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QUERY1_SQL, WSMED, QueryOptions, build_registry
from repro.obs.spans import SpanStore, TraceRecorder
from repro.util.errors import PlanError

from tests.integration.test_three_level_chain import SMALL_GEO, THREE_LEVEL_SQL
from tests.stats_oracle import tree_stats_from_trace


@pytest.fixture(scope="module")
def wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def spawned(system: WSMED, sql: str, fanouts: list[int]) -> int:
    options = QueryOptions(mode="parallel", fanouts=fanouts)
    return system.sql(sql, options=options).tree.processes_spawned


def test_total_processes_two_levels(wsmed) -> None:
    # N = fo1 + fo1*fo2 (paper Sec. V).
    assert spawned(wsmed, QUERY1_SQL, [5, 4]) == 25
    assert spawned(wsmed, QUERY1_SQL, [4, 3]) == 16
    assert spawned(wsmed, QUERY1_SQL, [2, 3]) == 8


def test_total_processes_flat_and_deep(wsmed) -> None:
    assert spawned(wsmed, QUERY1_SQL, [6, 0]) == 6
    # Three levels over one state: the level-one pool has a single child.
    deep = WSMED(build_registry("fast", geo_config=SMALL_GEO))
    deep.import_all()
    assert spawned(deep, THREE_LEVEL_SQL, [1, 2, 2]) == 1 + 2 + 4


def test_validation(wsmed) -> None:
    with pytest.raises(PlanError):
        wsmed.plan(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[]))
    with pytest.raises(PlanError):
        wsmed.plan(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[0, 2]))
    with pytest.raises(PlanError):
        QueryOptions(mode="parallel", fanouts=[2, -1])


@given(fo1=st.integers(min_value=1, max_value=7), fo2=st.integers(min_value=1, max_value=7))
@settings(max_examples=15, deadline=None)
def test_total_processes_matches_direct_computation(wsmed, fo1, fo2) -> None:
    total = 0
    layer = 1
    for fanout in (fo1, fo2):
        layer *= fanout
        total += layer
    assert spawned(wsmed, QUERY1_SQL, [fo1, fo2]) == total


def test_tree_stats_from_trace() -> None:
    trace = TraceRecorder()
    trace.instant("spawn", process="q0", at=0.0, plan_function="PF1", child="q1")
    trace.instant("spawn", process="q0", at=0.0, plan_function="PF1", child="q2")
    trace.instant("spawn", process="q1", at=1.0, plan_function="PF2", child="q3")
    trace.instant("spawn", process="q1", at=1.0, plan_function="PF2", child="q4")
    trace.instant("add_stage", category="adapt", process="q0", at=2.0, plan_function="PF1", added=1)
    trace.instant("spawn", process="q0", at=2.0, plan_function="PF1", child="q5")
    trace.instant(
        "drop_stage", category="adapt", process="q0", at=3.0, plan_function="PF1", dropped="q5"
    )
    stats = tree_stats_from_trace(trace.store)
    assert stats.processes_spawned == 5
    assert stats.processes_dropped == 1
    assert stats.add_stages == 1
    assert stats.drop_stages == 1
    assert stats.fanout_by_level["PF1"] == 2.0  # 3 spawned, 1 dropped
    assert stats.fanout_by_level["PF2"] == 2.0
    assert stats.pools_by_level == {"PF1": 1, "PF2": 1}
    assert stats.average_fanouts() == [2.0, 2.0]


def test_tree_stats_empty_trace() -> None:
    stats = tree_stats_from_trace(SpanStore())
    assert stats.processes_spawned == 0
    assert stats.average_fanouts() == []
