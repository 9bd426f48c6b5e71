"""A closed engine's plan functions are garbage-collectable.

A child installs the plan function shipped to it by compiling its body
(``repro.parallel.process.child_main``); the chain is kept on the plan
nodes, and nothing else holds it.  So once an engine is closed, or a
``ProcessKernel`` worker's trimmed tree has shut down, no plan function
of it stays resident in the coordinator or in the worker.
"""

import gc
import weakref

from repro import QUERY1_SQL, WSMED, QueryEngine, QueryOptions
from repro.algebra.plan import AFFApplyNode, FFApplyNode, PlanFunction, walk
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.runtime.multiprocess import ProcessKernel

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])

PROBE_SQL = """
Select p.install
From   GetAllStates gs, GetInfoByState gi, live_installs p
Where  gs.State = gi.USState and gs.State = 'Colorado'
  and  p.anything = gi.GetInfoByStateResult
"""


def live_installs(anything: str) -> list[tuple[str]]:
    """Every plan function installed in the calling process (its body
    compiled there) and still alive, by structure.  Uncompiled ones are
    left out: a worker forked from the coordinator inherits the
    coordinator's plans without running them."""
    gc.collect()
    return [
        (found.memo_signature.definition,)
        for found in gc.get_objects()
        if isinstance(found, PlanFunction) and found.body._pull_chain is not None
    ]


def fresh_wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    system.register_helping_function(
        helping_function(
            "live_installs",
            [("anything", CHARSTRING)],
            TupleType((("install", CHARSTRING),)),
            live_installs,
        )
    )
    return system


def plan_functions(plan) -> list[PlanFunction]:
    """The plan's plan functions, nested ones too."""
    found: list[PlanFunction] = []
    stack = [plan]
    while stack:
        for node in walk(stack.pop()):
            if isinstance(node, (FFApplyNode, AFFApplyNode)):
                found.append(node.plan_function)
                stack.append(node.plan_function.body)
    return found


def shipped(plan) -> set[str]:
    return {function.memo_signature.definition for function in plan_functions(plan)}


def test_closed_engines_leave_no_install_in_the_coordinator() -> None:
    closed: list[weakref.ref] = []
    for _ in range(2):
        engine = QueryEngine(fresh_wsmed())
        result = engine.sql(QUERY1_SQL, options=PARALLEL)
        closed += [weakref.ref(function) for function in plan_functions(result.plan)]
        engine.close()
        del engine, result
    assert len(closed) == 2 * 2  # per engine: PF1 and the PF2 nested in it
    gc.collect()
    assert [ref for ref in closed if ref() is not None] == []


def test_closed_pools_leave_no_install_in_a_worker(monkeypatch) -> None:
    """The worker forks from a coordinator where two closed engines ran,
    then serves a tree that the idle-pool bound trims: the query after it
    finds neither's plan functions in the worker."""
    closed: set[str] = set()
    for _ in range(2):
        engine = QueryEngine(fresh_wsmed())
        closed |= shipped(engine.sql(QUERY1_SQL, options=PARALLEL).plan)
        engine.close()
    monkeypatch.setattr("repro.engine.engine.MAX_IDLE_POOLS", 0)
    engine = QueryEngine(fresh_wsmed(), kernel=ProcessKernel(workers=1))
    try:
        closed |= shipped(engine.sql(QUERY1_SQL, options=PARALLEL).plan)
        probe = engine.sql(PROBE_SQL, options=QueryOptions(mode="parallel", fanouts=[2]))
        pools_closed = engine.stats().pools_closed
    finally:
        engine.close()
    assert pools_closed >= 1  # the trimmed Query1 tree was shut down first
    live = {row[0] for row in probe.rows}
    assert shipped(probe.plan) <= live  # the probe ran in a worker child
    assert not live & closed
