"""Property-based round-trip tests of the SOAP payload encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services import soap
from repro.services.wsdl import WsdlOperation, XsdComplex, XsdElement
from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL

# XML 1.0-safe text: no control characters except TAB, LF and CR (the
# encoder writes CR as a character reference so it survives the parser).
xml_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("\t\n\r"),
        st.characters(min_codepoint=32, max_codepoint=0x2FF),
    ),
    max_size=20,
)

row_payloads = st.fixed_dictionaries(
    {
        "name": xml_text,
        "count": st.integers(min_value=-(10**9), max_value=10**9),
        "score": st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
        ),
        "flag": st.booleans(),
    }
)

OPERATION = WsdlOperation(
    name="Probe",
    input_element=XsdElement(
        name="Probe",
        complex=XsdComplex(
            (
                XsdElement(name="q", atom=CHARSTRING),
                XsdElement(name="n", atom=INTEGER),
            )
        ),
    ),
    output_element=XsdElement(
        name="ProbeResponse",
        complex=XsdComplex(
            (
                XsdElement(
                    name="Row",
                    repeated=True,
                    complex=XsdComplex(
                        (
                            XsdElement(name="name", atom=CHARSTRING),
                            XsdElement(name="count", atom=INTEGER),
                            XsdElement(name="score", atom=REAL),
                            XsdElement(name="flag", atom=BOOLEAN),
                        )
                    ),
                ),
            )
        ),
    ),
)


@given(rows=st.lists(row_payloads, max_size=8))
@settings(max_examples=80, deadline=None)
def test_response_roundtrip_preserves_values(rows) -> None:
    payload = {"Row": rows}
    text = soap.encode_response(OPERATION, payload)
    decoded_rows = soap.decode_response(OPERATION, text)
    assert len(decoded_rows) == len(rows)
    for original, (name, count, score, flag) in zip(rows, decoded_rows):
        assert name == original["name"]
        assert count == original["count"]
        assert score == pytest.approx(original["score"], rel=1e-12)
        assert flag == original["flag"]
    assert soap.count_rows(OPERATION.output_element, payload) == len(rows)


@given(q=xml_text, n=st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=80, deadline=None)
def test_request_roundtrip(q, n) -> None:
    text = soap.encode_request(OPERATION, [q, n])
    assert soap.decode_request(OPERATION, text) == [q, n]
