"""A process's plan-function installs live no longer than the children
that run them.

A child compiles the plan function shipped to it once per process and
message (``repro.parallel.process._install``): the children a pool ships
one dict share one chain.  An install must go with the last child holding
it, so a closed engine's plan functions and compiled chains do not stay
resident in the coordinator or in a ``ProcessKernel`` worker.
"""

import json
import weakref

from repro import QUERY1_SQL, WSMED, QueryEngine, QueryOptions
from repro.algebra.plan import AFFApplyNode, FFApplyNode, walk
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.parallel import process
from repro.runtime.multiprocess import ProcessKernel

from tests.helpers import wsdl_uri

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])

PROBE_SQL = """
Select p.install
From   GetAllStates gs, GetInfoByState gi, live_installs p
Where  gs.State = gi.USState and gs.State = 'Colorado'
  and  p.anything = gi.GetInfoByStateResult
"""


def live_installs(anything: str) -> list[tuple[str]]:
    """Every install alive in the calling process, as its shipped dict."""
    return [
        (json.dumps(installed.shipped, sort_keys=True),)
        for installed in list(process._installed.values())
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


def shipped(plan) -> set[str]:
    """The plan's plan functions, nested ones too, as their shipped dicts."""
    found: set[str] = set()
    stack = [plan]
    while stack:
        for node in walk(stack.pop()):
            if isinstance(node, (FFApplyNode, AFFApplyNode)):
                found.add(json.dumps(node.plan_function.to_dict(), sort_keys=True))
                stack.append(node.plan_function.body)
    return found


def test_closed_engines_leave_no_install_in_the_coordinator() -> None:
    closed: list[weakref.ref] = []
    for _ in range(2):
        before = set(map(id, process._installed.values()))
        engine = QueryEngine(fresh_wsmed())
        engine.sql(QUERY1_SQL, options=PARALLEL)
        closed += [weakref.ref(i) for i in process._installed.values() if id(i) not in before]
        engine.close()
    assert len(closed) == 2 * 6  # per engine: the top pool's, and each PF1 child's nested pool's
    before = set(map(id, process._installed.values()))
    engine = QueryEngine(fresh_wsmed())
    try:
        engine.sql(QUERY1_SQL, options=PARALLEL)
        assert [ref for ref in closed if ref() is not None] == []
        # Compile once: 25 children, 6 pools, 6 installs.
        assert len([i for i in process._installed.values() if id(i) not in before]) == 6
    finally:
        engine.close()


def test_closed_pools_leave_no_install_in_a_worker() -> None:
    """The worker forks from a coordinator where two closed engines ran,
    then serves a tree that a WSDL re-import condemns: the query after it
    finds neither's installs in the worker."""
    closed: set[str] = set()
    for _ in range(2):
        engine = QueryEngine(fresh_wsmed())
        closed |= shipped(engine.sql(QUERY1_SQL, options=PARALLEL).plan)
        engine.close()
    system = fresh_wsmed()
    engine = QueryEngine(system, kernel=ProcessKernel(workers=1))
    try:
        closed |= shipped(engine.sql(QUERY1_SQL, options=PARALLEL).plan)
        system.import_wsdl(wsdl_uri(system, "GetPlacesWithin"))
        probe = engine.sql(PROBE_SQL, options=QueryOptions(mode="parallel", fanouts=[2]))
        pools_closed = engine.stats().pools_closed
    finally:
        engine.close()
    assert pools_closed >= 1  # the condemned Query1 tree was shut down first
    live = {row[0] for row in probe.rows}
    assert shipped(probe.plan) <= live  # the probe ran in a worker child
    assert not live & closed
