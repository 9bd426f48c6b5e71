"""Tests for SOAP-style payload encoding and decoding."""

import pytest

from repro import WSMED, QueryOptions
from repro.services import soap
from repro.services.geodata import GeoDatabase
from repro.services.providers import (
    GeoPlacesProvider,
    TerraServiceProvider,
    USZipProvider,
)
from repro.services.wsdl import parse_wsdl
from repro.util.errors import ReproError, WsdlError


@pytest.fixture(scope="module")
def world():
    geodata = GeoDatabase()
    providers = {
        "GeoPlaces": GeoPlacesProvider(geodata),
        "TerraService": TerraServiceProvider(geodata),
        "USZip": USZipProvider(geodata),
    }
    documents = {
        name: parse_wsdl(provider.wsdl_text(), provider.uri)
        for name, provider in providers.items()
    }
    return geodata, providers, documents


def test_request_roundtrip(world) -> None:
    _, _, documents = world
    operation = documents["GeoPlaces"].operation("GetPlacesWithin")
    text = soap.encode_request(operation, ["Atlanta", "Georgia", 15.0, "City"])
    assert b"<place>Atlanta</place>" in text
    assert soap.decode_request(operation, text) == ["Atlanta", "Georgia", 15.0, "City"]


def test_request_wrong_arity_rejected(world) -> None:
    _, _, documents = world
    operation = documents["GeoPlaces"].operation("GetPlacesWithin")
    with pytest.raises(WsdlError, match="4 arguments"):
        soap.encode_request(operation, ["Atlanta"])


def test_request_type_mismatch_rejected(world) -> None:
    _, _, documents = world
    operation = documents["GeoPlaces"].operation("GetPlacesWithin")
    with pytest.raises(WsdlError):
        soap.encode_request(operation, ["Atlanta", "Georgia", "far", "City"])


def test_boolean_and_int_marshalling(world) -> None:
    _, _, documents = world
    operation = documents["TerraService"].operation("GetPlaceList")
    text = soap.encode_request(operation, ["Atlanta, GA", 100, True])
    assert b"<imagePresence>true</imagePresence>" in text
    assert b"<MaxItems>100</MaxItems>" in text
    assert soap.decode_request(operation, text) == ["Atlanta, GA", 100, True]


def test_response_roundtrip_produces_value_model(world) -> None:
    """The decoded answer is the OWF's rows: one typed tuple per
    GeoPlaceDetails of GetAllStatesResult, in the schema's column order."""
    _, providers, documents = world
    operation = documents["GeoPlaces"].operation("GetAllStates")
    payload = providers["GeoPlaces"].invoke("GetAllStates", [])
    text = soap.encode_response(operation, payload)
    rows = soap.decode_response(operation, text)
    assert isinstance(rows, tuple) and all(type(row) is tuple for row in rows)
    assert len(rows) == 50
    columns = [name for name, _ in operation.output_element.codec.flattening.columns]
    first = dict(zip(columns, rows[0]))
    assert first["State"] == "Alabama"
    assert isinstance(first["LatDegrees"], float)


def test_atomic_response_roundtrip(world) -> None:
    _, providers, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    payload = providers["USZip"].invoke("GetInfoByState", ["Colorado"])
    text = soap.encode_response(operation, payload)
    (row,) = soap.decode_response(operation, text)
    (zip_string,) = row  # GetInfoByStateResult
    assert isinstance(zip_string, str)
    assert "80840" in zip_string.split(",")


def test_encode_response_rejects_unknown_keys(world) -> None:
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    with pytest.raises(WsdlError, match="not in schema"):
        soap.encode_response(operation, {"Bogus": "x"})


def test_encode_response_rejects_missing_child(world) -> None:
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    with pytest.raises(WsdlError, match="missing"):
        soap.encode_response(operation, {})


def test_decode_response_rejects_wrong_root(world) -> None:
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    with pytest.raises(WsdlError, match="GetInfoByStateResponse"):
        soap.decode_response(operation, b"<Other/>")


def test_count_rows_repeated(world) -> None:
    _, providers, documents = world
    operation = documents["GeoPlaces"].operation("GetAllStates")
    payload = providers["GeoPlaces"].invoke("GetAllStates", [])
    assert soap.count_rows(operation.output_element, payload) == 50


def test_count_rows_scalar_response_is_one(world) -> None:
    _, providers, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    payload = providers["USZip"].invoke("GetInfoByState", ["Ohio"])
    assert soap.count_rows(operation.output_element, payload) == 1


def test_count_rows_empty_repeated_is_zero(world) -> None:
    _, providers, documents = world
    operation = documents["GeoPlaces"].operation("GetPlacesWithin")
    payload = {"GetPlacesWithinResult": {"GeoPlaceDistance": []}}
    assert soap.count_rows(operation.output_element, payload) == 0


# -- strings XML 1.0 cannot carry as they are ---------------------------------------


def test_carriage_return_survives_the_round_trip(world) -> None:
    """A parser reads a literal CR as LF, which would call the provider
    with another key than the one the call cache memoizes under."""
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    text = soap.encode_request(operation, ["a\rb\r\nc"])
    assert text == b"<GetInfoByState><USState>a&#13;b&#13;\nc</USState></GetInfoByState>"
    assert soap.decode_request(operation, text) == ["a\rb\r\nc"]
    response = soap.encode_response(operation, {"GetInfoByStateResult": "\r"})
    assert soap.decode_response(operation, response) == (("\r",),)


@pytest.mark.parametrize(
    "character",
    ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\ufffe", "\uffff"],
    ids=lambda character: f"U+{ord(character):04X}",
)
def test_characters_outside_xml_are_refused_by_the_encoder(world, character) -> None:
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    with pytest.raises(WsdlError, match="is not allowed in XML 1.0 text"):
        soap.encode_request(operation, [f"Oh{character}io"])
    with pytest.raises(WsdlError, match="is not allowed in XML 1.0 text"):
        soap.encode_response(operation, {"GetInfoByStateResult": character})


def test_control_character_in_a_query_is_a_repro_error() -> None:
    """Not a raw ``xml.etree.ElementTree.ParseError``, which is no
    ``ReproError`` and so slips past every handler of the operators."""
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    sql = (
        "SELECT gi.GetInfoByStateResult FROM GetInfoByState gi "
        "WHERE gi.USState = 'Oh\x0bio'"
    )
    with pytest.raises(ReproError, match="is not allowed in XML 1.0 text"):
        wsmed.sql(sql, options=QueryOptions(mode="central"))


def test_malformed_documents_are_wsdl_errors(world) -> None:
    _, _, documents = world
    operation = documents["USZip"].operation("GetInfoByState")
    with pytest.raises(WsdlError, match="not well-formed XML"):
        soap.decode_response(operation, b"<GetInfoByStateResponse><x>")
    with pytest.raises(WsdlError, match="not well-formed XML"):
        soap.decode_request(operation, b"<GetInfoByState><USState>Oh\x0bio")
