"""A warm child parked between calls keeps nothing of its last call.

A resident engine keeps every pool's children parked on their downlinks
between queries — about 2,000 of them over the chain-world mix.  Each call
runs in its own coroutine (``_CallRunner.serve``), so its rows, its
end-of-call and its buffers die with it; a parked child's frames hold only
what the process itself needs.  Per-call state left in a parked frame
would stay resident once per child.
"""

import gc

from benchmarks.e2e.world import ChainWorld, rows_match
from repro import QueryEngine, QueryOptions
from repro.parallel.messages import EndOfCall, ResultTuple
from repro.parallel.process import _CallRunner


def _frames(coroutine):
    """The coroutine and everything it awaits, down to the kernel request."""
    while coroutine is not None:
        yield coroutine
        coroutine = getattr(coroutine, "cr_await", None) or getattr(
            coroutine, "gi_yieldfrom", None
        )


def _per_call(value) -> bool:
    if isinstance(value, (EndOfCall, ResultTuple)):
        return True
    # A list of row tuples: a call's buffered rows.
    return isinstance(value, list) and any(isinstance(item, tuple) for item in value)


def test_parked_children_hold_no_per_call_state() -> None:
    world = ChainWorld(7)
    engine = QueryEngine(world.build())
    try:
        for _ in range(2):  # cold, then warm
            for entry in world.trace(7):
                options = QueryOptions(mode=entry["mode"], fanouts=entry["fanouts"])
                result = engine.sql(entry["sql"], options=options)
                assert rows_match(entry["kind"], result.rows, entry["reference"])
        children = [
            task
            for task in engine.kernel._tasks
            if getattr(task._coro, "cr_code", None) is not None
            and task._coro.cr_code.co_name == "child_main"
        ]
        assert len(children) > 100
        held = [
            (task.name, type(value).__name__)
            for task in children
            for frame in _frames(task._coro)
            for local in gc.get_referents(frame)
            # The runner lives as long as the child: its fields count too.
            for value in [local, *(vars(local).values() if isinstance(local, _CallRunner) else ())]
            if _per_call(value)
        ]
        assert held == []
    finally:
        engine.close()
