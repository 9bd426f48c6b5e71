"""Tests for the function registry and the WSMED metadata catalog."""

import pytest

from repro.fdb.catalog import Catalog
from repro.fdb.functions import (
    FunctionDef,
    FunctionError,
    FunctionKind,
    FunctionRegistry,
    Parameter,
    helping_function,
)
from repro.fdb.types import CHARSTRING, TupleType


def sample_function(name: str = "GetAllStates") -> FunctionDef:
    return FunctionDef(
        name=name,
        kind=FunctionKind.OWF,
        parameters=(),
        result=TupleType((("state", CHARSTRING),)),
        implementation=None,
    )


def test_register_and_resolve_case_insensitive() -> None:
    registry = FunctionRegistry()
    registry.register(sample_function())
    assert registry.resolve("getallstates").name == "GetAllStates"
    assert "GETALLSTATES" in registry


def test_duplicate_registration_rejected_but_replace_allowed() -> None:
    registry = FunctionRegistry()
    registry.register(sample_function())
    with pytest.raises(FunctionError):
        registry.register(sample_function())
    registry.replace(sample_function())  # re-import is fine


def test_version_moves_on_every_definition_change_only() -> None:
    registry = FunctionRegistry()
    start = registry.version
    registry.register(sample_function())
    registry.resolve("GetAllStates")
    assert registry.version == start + 1
    registry.replace(sample_function())
    assert registry.version == start + 2


def test_unknown_function_error_lists_known() -> None:
    registry = FunctionRegistry()
    registry.register(sample_function())
    with pytest.raises(FunctionError, match="GetAllStates"):
        registry.resolve("GetPlaces")


def test_owfs_filter() -> None:
    registry = FunctionRegistry()
    registry.register(sample_function())
    registry.register(
        helping_function(
            "getzipcode",
            [("zipstr", CHARSTRING)],
            TupleType((("zipcode", CHARSTRING),)),
            lambda zipstr: [(z,) for z in zipstr.split(",")],
        )
    )
    assert [f.name for f in registry.owfs()] == ["GetAllStates"]


def test_signature_shows_binding_pattern() -> None:
    function = FunctionDef(
        name="GetInfoByState",
        kind=FunctionKind.OWF,
        parameters=(Parameter("USState", CHARSTRING),),
        result=TupleType((("GetInfoByStateResult", CHARSTRING),)),
        implementation=None,
    )
    assert function.signature() == "GetInfoByState(USState-, GetInfoByStateResult+)"


def test_str_shows_typed_signature() -> None:
    function = sample_function()
    assert str(function) == "GetAllStates() -> Bag of <Charstring state>"


def test_catalog_roundtrip() -> None:
    catalog = Catalog()
    catalog.record_service("http://x/y.wsdl", "GeoPlaces", "GeoPlacesSoap")
    catalog.record_operation(
        "http://x/y.wsdl",
        "GeoPlaces",
        "GetAllStates",
        "GetAllStates",
        parameters=[],
        result_columns=[("state", "Charstring"), ("name", "Charstring")],
    )
    assert list(catalog.services.scan()) == [
        ("http://x/y.wsdl", "GeoPlaces", "GeoPlacesSoap")
    ]
    assert list(catalog.operations.scan()) == [
        ("http://x/y.wsdl", "GeoPlaces", "GetAllStates", "GetAllStates")
    ]
    assert list(catalog.parameters.scan()) == []
    assert list(catalog.result_columns.scan()) == [
        ("GetAllStates", 0, "state", "Charstring"),
        ("GetAllStates", 1, "name", "Charstring"),
    ]


def test_catalog_parameter_order_preserved() -> None:
    catalog = Catalog()
    catalog.record_operation(
        "u",
        "s",
        "GetPlacesWithin",
        "GetPlacesWithin",
        parameters=[
            ("place", "Charstring"),
            ("state", "Charstring"),
            ("distance", "Real"),
            ("placeTypeToFind", "Charstring"),
        ],
        result_columns=[("ToCity", "Charstring")],
    )
    rows = sorted(catalog.parameters.scan(), key=lambda row: row[1])
    assert [name for _, _, name, _ in rows] == [
        "place", "state", "distance", "placeTypeToFind"
    ]
