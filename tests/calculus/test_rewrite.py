"""Access-path declarations and the binding-pattern rewrite search."""

import pytest

from benchmarks.worlds import (
    REWRITE_SQL,
    build_optimizer_world,
)
from repro.calculus.expressions import FunctionPredicate
from repro.calculus.generator import generate_calculus
from repro.calculus.rewrite import rewrite_unfittable
from repro.fdb.functions import FunctionError, FunctionRegistry, helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.sql.parser import parse_query
from repro.util.errors import BindingError


@pytest.fixture(scope="module")
def world():
    return build_optimizer_world()


# -- declare_access_path validation ------------------------------------------


def test_access_path_rejects_self(world) -> None:
    with pytest.raises(FunctionError, match="access path of itself"):
        world.functions.declare_access_path(
            "NameOf", "NameOf", {"code": "code", "name": "name"}
        )


def test_access_path_rejects_unknown_column(world) -> None:
    with pytest.raises(FunctionError, match="not a\\s+column of"):
        world.functions.declare_access_path(
            "NameOf", "CodeOf", {"bogus": "code", "name": "name"}
        )


def test_access_path_rejects_many_to_one_mapping(world) -> None:
    with pytest.raises(FunctionError, match="one-to-one"):
        world.functions.declare_access_path(
            "NameOf", "CodeOf", {"code": "code", "name": "code"}
        )


def test_access_path_requires_input_coverage(world) -> None:
    # NameOf's input 'code' is absent from the mapping keys, so a
    # rewritten NameOf call could never be constructed.
    with pytest.raises(FunctionError, match="cover every input"):
        world.functions.declare_access_path(
            "NameOf", "CodeOf", {"name": "name"}
        )


def test_access_path_is_symmetric(world) -> None:
    forward = world.functions.access_paths("NameOf")
    backward = world.functions.access_paths("CodeOf")
    assert [p.alternative for p in forward] == ["CodeOf"]
    assert [p.alternative for p in backward] == ["NameOf"]
    assert dict(forward[0].mapping) == {
        v: k for k, v in dict(backward[0].mapping).items()
    }


# -- calculus generation with unbound placeholders ---------------------------


def test_strict_generation_rejects_unfittable_binding(world) -> None:
    with pytest.raises(BindingError, match="'code' of view 'NameOf'"):
        generate_calculus(parse_query(REWRITE_SQL), world.functions, "Query")


def test_lenient_generation_records_placeholders(world) -> None:
    calculus = generate_calculus(
        parse_query(REWRITE_SQL), world.functions, "Query", allow_unbound=True
    )
    assert calculus.unbound == ("no_code",)


# -- the rewrite search ------------------------------------------------------


def test_rewrite_replaces_call_and_clears_unbound(world) -> None:
    calculus = generate_calculus(
        parse_query(REWRITE_SQL), world.functions, "Query", allow_unbound=True
    )
    rewritten, applied = rewrite_unfittable(calculus, world.functions)
    assert rewritten.unbound == ()
    (rewrite,) = applied
    assert rewrite.original == "NameOf"
    assert rewrite.replacement == "CodeOf"
    assert "unbound: no_code" in rewrite.reason
    assert "no_code" in rewrite.produced
    functions = [
        p.function
        for p in rewritten.predicates
        if isinstance(p, FunctionPredicate)
    ]
    assert "CodeOf" in functions
    assert "NameOf" not in functions


def test_rewrite_names_an_unmapped_alternative_column_afresh() -> None:
    # The alternative returns a column the mapping does not mention; the
    # rewritten call binds it to a fresh variable that clashes with nothing.
    functions = FunctionRegistry()
    for function in (
        helping_function("Items", [], TupleType((("item", CHARSTRING),)), list),
        helping_function(
            "NameOf", [("code", CHARSTRING)], TupleType((("name", CHARSTRING),)), list
        ),
        helping_function(
            "CodeOf",
            [("name", CHARSTRING)],
            TupleType((("code", CHARSTRING), ("kind", CHARSTRING))),
            list,
        ),
    ):
        functions.register(function)
    functions.declare_access_path("NameOf", "CodeOf", {"code": "code", "name": "name"})
    sql = "SELECT li.item, no.code FROM Items li, NameOf no WHERE no.name = li.item"
    calculus = generate_calculus(
        parse_query(sql), functions, "Query", allow_unbound=True
    )
    rewritten, _ = rewrite_unfittable(calculus, functions)
    (call,) = [
        p for p in rewritten.predicates
        if isinstance(p, FunctionPredicate) and p.function == "CodeOf"
    ]
    assert [v.name for v in call.outputs] == ["no_code", "no_kind"]
    assert rewritten.unbound == ()


def test_rewrite_is_noop_without_placeholders(world) -> None:
    calculus = generate_calculus(
        parse_query("SELECT li.item FROM ListItems li"),
        world.functions,
        "Query",
    )
    rewritten, applied = rewrite_unfittable(calculus, world.functions)
    assert rewritten is calculus
    assert applied == []


def test_rewrite_without_paths_lists_attempts(world) -> None:
    # CheckRegion's input stays unbound and it declares no access paths.
    sql = "SELECT ck.status FROM CheckRegion ck WHERE ck.status = 'ok'"
    calculus = generate_calculus(
        parse_query(sql), world.functions, "Query", allow_unbound=True
    )
    with pytest.raises(BindingError) as excinfo:
        rewrite_unfittable(calculus, world.functions)
    message = str(excinfo.value)
    assert "no declared access path can bind them: ck_region" in message
    assert "no access paths declared" in message
