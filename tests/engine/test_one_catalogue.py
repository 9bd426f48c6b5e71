"""One catalogue per engine: a ``QueryEngine`` freezes the functions of
the ``WSMED`` it runs on.

Replacing a definition or declaring an access path under a live engine
raises :class:`FunctionError` before anything changes; registering a new
name is still allowed, and a ``WSMED`` with no engine re-imports freely.
"""

from dataclasses import fields

import pytest

from benchmarks.worlds import (
    ADVERSARIAL_SQL,
    PROBE as ProbeProvider,
    build_optimizer_world,
    expected_adversarial_rows,
)
from repro import WSMED, QueryEngine, QueryOptions
from repro.cache import CallMemo, PlanSignature
from repro.engine import PlanCache, PoolRegistry
from repro.fdb.functions import FunctionError

CENTRAL = QueryOptions(mode="central")


def catalogue(wsmed) -> tuple:
    """What a change to the catalogue would move, read from outside."""
    return (
        wsmed.sql("SELECT * FROM ws_services").rows,
        wsmed.sql("SELECT * FROM ws_operations").rows,
        wsmed.functions.version,
        wsmed.functions.access_paths("CodeOf"),
    )


REFUSED = {
    "import_wsdl": lambda wsmed: wsmed.import_wsdl(ProbeProvider.uri),
    "declare_access_path": lambda wsmed: wsmed.functions.declare_access_path(
        "NameOf", "CodeOf", {"code": "code", "name": "name"}
    ),
}


@pytest.mark.parametrize("change", sorted(REFUSED))
def test_a_refused_change_leaves_catalogue_and_engine_unchanged(change) -> None:
    wsmed = build_optimizer_world()
    engine = QueryEngine(wsmed)
    try:
        first = engine.sql(ADVERSARIAL_SQL, options=CENTRAL)
        before = catalogue(wsmed)
        plans = list(engine.plan_cache._entries.items())
        with pytest.raises(FunctionError, match="build a new WSMED and engine"):
            REFUSED[change](wsmed)
        assert catalogue(wsmed) == before
        assert list(engine.plan_cache._entries.items()) == plans
        again = engine.sql(ADVERSARIAL_SQL, options=CENTRAL)
        assert engine.stats().plan_cache_hits == 1
    finally:
        engine.close()
    assert sorted(first.rows) == sorted(again.rows) == expected_adversarial_rows()


def test_closing_the_engine_does_not_unfreeze() -> None:
    wsmed = build_optimizer_world()
    QueryEngine(wsmed).close()
    with pytest.raises(FunctionError, match="cannot replace 'CheckRegion'"):
        REFUSED["import_wsdl"](wsmed)


def test_without_an_engine_a_reimport_replaces() -> None:
    wsmed = build_optimizer_world()
    old = wsmed.functions.resolve("CheckRegion")
    version = wsmed.functions.version
    assert "CheckRegion" in REFUSED["import_wsdl"](wsmed)
    REFUSED["declare_access_path"](wsmed)
    assert wsmed.functions.resolve("CheckRegion") is not old
    assert wsmed.functions.version > version
    assert len(wsmed.functions.access_paths("CodeOf")) == 2


def test_nothing_resident_is_invalidated() -> None:
    """What only a live re-import needed is gone: no replace listener, no
    plan-cache, memo or pool invalidation, and a memo key names no
    functions to invalidate by."""
    for owner, gone in (
        (WSMED, "add_replace_listener"),
        (QueryEngine, "_on_function_replaced"),
        (PlanCache, "invalidate"),
        (PoolRegistry, "condemn"),
        (CallMemo, "invalidate_operation"),
    ):
        assert not hasattr(owner, gone), f"{owner.__name__}.{gone}"
    assert [field.name for field in fields(PlanSignature)] == ["definition"]
