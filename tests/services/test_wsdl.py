"""Tests for the WSDL model and parser."""

import pytest

from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL
from repro.services.geodata import GeoDatabase
from repro.services.providers import ALL_PROVIDERS, GeoPlacesProvider
from repro.services.wsdl import WsdlDocument, XsdElement, parse_wsdl
from repro.util.errors import WsdlError


@pytest.fixture(scope="module")
def geoplaces_doc() -> WsdlDocument:
    provider = GeoPlacesProvider(GeoDatabase())
    return parse_wsdl(provider.wsdl_text(), provider.uri)


def test_all_provider_wsdls_parse() -> None:
    geodata = GeoDatabase()
    for provider_class in ALL_PROVIDERS:
        provider = provider_class(geodata)
        document = parse_wsdl(provider.wsdl_text(), provider.uri)
        assert document.operations


def test_service_and_port_names(geoplaces_doc) -> None:
    assert geoplaces_doc.service_name == "GeoPlaces"
    assert geoplaces_doc.port_name == "GeoPlacesSoap"
    assert geoplaces_doc.target_namespace == "urn:sim:geoplaces"


def test_operation_inputs_typed(geoplaces_doc) -> None:
    operation = geoplaces_doc.operation("GetPlacesWithin")
    assert operation.input_parameters() == [
        ("place", CHARSTRING),
        ("state", CHARSTRING),
        ("distance", REAL),
        ("placeTypeToFind", CHARSTRING),
    ]


def test_no_input_operation(geoplaces_doc) -> None:
    assert geoplaces_doc.operation("GetAllStates").input_parameters() == []


def child(element, name: str):
    (found,) = [c for c in element.complex.children if c.name == name]
    return found


def test_output_schema_structure(geoplaces_doc) -> None:
    output = geoplaces_doc.operation("GetAllStates").output_element
    result = child(output, "GetAllStatesResult")
    details = child(result, "GeoPlaceDetails")
    assert details.repeated
    assert child(details, "State").atom is CHARSTRING
    assert child(details, "LatDegrees").atom is REAL


def test_unknown_operation_raises(geoplaces_doc) -> None:
    with pytest.raises(WsdlError, match="GetPlacesWithin"):
        geoplaces_doc.operation("Nope")


def test_terraservice_types() -> None:
    from repro.services.providers import TerraServiceProvider

    provider = TerraServiceProvider(GeoDatabase())
    document = parse_wsdl(provider.wsdl_text(), provider.uri)
    operation = document.operation("GetPlaceList")
    assert operation.input_parameters() == [
        ("placeName", CHARSTRING),
        ("MaxItems", INTEGER),
        ("imagePresence", BOOLEAN),
    ]


def test_parse_rejects_malformed_xml() -> None:
    with pytest.raises(WsdlError, match="well-formed"):
        parse_wsdl("<definitions>", "u")


def test_parse_rejects_wrong_root() -> None:
    with pytest.raises(WsdlError, match="definitions"):
        parse_wsdl("<wsdl/>", "u")


def test_parse_rejects_unknown_type() -> None:
    text = """
    <definitions name="X">
      <types><schema>
        <element name="Req"><complexType><sequence>
          <element name="a" type="xsd:hexBinary"/>
        </sequence></complexType></element>
      </schema></types>
      <portType name="P"/>
      <service name="S"><port name="P"/></service>
    </definitions>
    """
    with pytest.raises(WsdlError, match="hexBinary"):
        parse_wsdl(text, "u")


def test_parse_rejects_dangling_operation_reference() -> None:
    text = """
    <definitions name="X">
      <types><schema>
        <element name="Req"><complexType><sequence/></complexType></element>
      </schema></types>
      <portType name="P">
        <operation name="Op">
          <input element="Req"/>
          <output element="Resp"/>
        </operation>
      </portType>
      <service name="S"><port name="P"/></service>
    </definitions>
    """
    with pytest.raises(WsdlError, match="Resp"):
        parse_wsdl(text, "u")


def test_xsd_element_must_be_atomic_xor_complex() -> None:
    with pytest.raises(WsdlError):
        XsdElement(name="bad")


def test_namespaced_tags_are_accepted() -> None:
    text = """
    <w:definitions name="X" xmlns:w="http://schemas.xmlsoap.org/wsdl/"
                   xmlns:s="http://www.w3.org/2001/XMLSchema">
      <w:types><s:schema>
        <s:element name="Req"><s:complexType><s:sequence/></s:complexType></s:element>
        <s:element name="Resp" type="s:string"/>
      </s:schema></w:types>
      <w:portType name="P">
        <w:operation name="Op">
          <w:input element="Req"/>
          <w:output element="Resp"/>
        </w:operation>
      </w:portType>
      <w:service name="S"><w:port name="P"/></w:service>
    </w:definitions>
    """
    document = parse_wsdl(text, "u")
    assert document.operation("Op").output_element.atom is CHARSTRING
