"""The compiled SOAP codec against the reference walkers it replaced.

``reference_codec`` is the generic ElementTree build / serialize / parse /
walk that ``repro.services.soap`` used to run on every call, and the
flattening the OWFs then ran over the decoded value model.  The compiled
codec must emit the same bytes, decode to the same rows — value for value
and type for type — count the same rows and refuse the same inputs with the
same messages: on the paper's services, on a synthetic chain world, on
Query1's calls and on generated nested schemas.
"""

import copy
import pickle
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.world import walk_query1
from benchmarks.worlds import build_world
from repro import QUERY1_SQL, WSMED
from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL
from repro.services import soap
from repro.services.registry import build_registry
from repro.services.wsdl import WsdlOperation, XsdComplex, XsdElement
from repro.util.errors import WsdlError
from tests.services import reference_codec as reference
from tests.services.test_soap_properties import OPERATION


def outcome(function, *arguments):
    """What a codec call did: its value, or the error it raised."""
    try:
        return "ok", function(*arguments)
    except (WsdlError, ValueError) as error:
        return type(error).__name__, str(error)
    except TypeError:  # raised by a builtin on a junk payload; wording is CPython's
        return "TypeError", None


def typed(value):
    """``value`` with the type of every atom and container beside it:
    ``1 == 1.0 == True`` and ``(1,) == [1]`` would hide a wrong decoding."""
    if isinstance(value, (tuple, list)):
        return type(value), [typed(item) for item in value]
    return type(value), value


def assert_same(name: str, *arguments):
    """Both codecs agree on ``name(*arguments)``; returns the outcome."""
    compiled = outcome(getattr(soap, name), *arguments)
    assert typed(compiled) == typed(outcome(getattr(reference, name), *arguments))
    return compiled


def assert_call_identical(operation, arguments, payload) -> int:
    """One call, both directions, both codecs; returns its wire bytes."""
    _, request = assert_same("encode_request", operation, arguments)
    _, response = assert_same("encode_response", operation, payload)
    assert assert_same("decode_request", operation, request) == ("ok", arguments)
    kind, _ = assert_same("decode_response", operation, response)
    assert kind == "ok" or not flattens(operation.output_element)
    assert_same("count_rows", operation.output_element, payload)
    return len(request) + len(response)


def flattens(element: XsdElement) -> bool:
    """Whether an OWF can flatten answers in ``element`` (else both codecs
    refuse to decode them, with the same message)."""
    try:
        reference.build_levels(element)
    except WsdlError:
        return False
    return True


# -- generated schemas ---------------------------------------------------------

names = st.text(alphabet="abcXYZ_.-", min_size=1, max_size=4).filter(
    lambda name: name[0] not in ".-"
)
# No CR (the reference loses it; see test_soap.py), no code point XML 1.0
# cannot carry, otherwise everything: markup, non-ASCII, astral, empty.
xml_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\t\n \xe5\u2028\ud7ff\ufffd\U0001f600"),
        st.characters(min_codepoint=32, max_codepoint=0x2FF),
    ),
    max_size=12,
)
ATOM_VALUES = {
    CHARSTRING: xml_text,
    INTEGER: st.integers(min_value=-(10**12), max_value=10**12),
    REAL: st.one_of(
        st.floats(allow_nan=False), st.integers(min_value=-99, max_value=99)
    ),
    BOOLEAN: st.booleans(),
}
atoms = st.sampled_from(list(ATOM_VALUES))


@st.composite
def elements(draw, depth: int = 3, name: str | None = None):
    """An :class:`XsdElement`: atomic or complex, single or repeated."""
    name = name or draw(names)
    repeated = draw(st.booleans())
    if depth == 0 or draw(st.booleans()):
        return XsdElement(name=name, atom=draw(atoms), repeated=repeated)
    child_names = draw(st.lists(names, max_size=3, unique=True))
    children = tuple(draw(elements(depth - 1, child)) for child in child_names)
    return XsdElement(name=name, complex=XsdComplex(children), repeated=repeated)


def payloads(schema: XsdElement):
    """Payloads one instance of ``schema`` accepts."""
    if schema.is_atomic:
        return ATOM_VALUES[schema.atom]
    required, optional = {}, {}
    for child in schema.complex.children:
        if child.repeated:  # a repeated key may be absent altogether
            optional[child.name] = st.lists(payloads(child), max_size=3)
        else:
            required[child.name] = payloads(child)
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def operations(draw):
    """An operation with flat atomic inputs and a nested output (depth <= 3)."""
    parameter_names = draw(st.lists(names, max_size=3, unique=True))
    parameters = tuple(
        XsdElement(name=name, atom=draw(atoms)) for name in parameter_names
    )
    output = draw(elements(name="Response"))
    return WsdlOperation(
        name="Op",
        input_element=XsdElement(name="Op", complex=XsdComplex(parameters)),
        output_element=XsdElement(
            name=output.name, atom=output.atom, complex=output.complex
        ),
    )


def arguments_of(operation: WsdlOperation):
    return st.tuples(
        *[ATOM_VALUES[atom] for _, atom in operation.input_parameters()]
    ).map(list)


@st.composite
def calls(draw):
    """An operation (sometimes the fixed ``OPERATION``) with matching inputs."""
    operation = draw(st.one_of(st.just(OPERATION), operations()))
    return (
        operation,
        draw(arguments_of(operation)),
        draw(payloads(operation.output_element)),
    )


@given(call=calls())
@settings(max_examples=300, deadline=None)
def test_generated_calls_are_byte_and_value_identical(call) -> None:
    assert_call_identical(*call)


@st.composite
def flattenable(draw, depth: int = 3, name: str | None = None):
    """A complex element an OWF can flatten: atomic columns around at most
    one nested child — a repeated atomic leaf, or a complex element (single
    or repeated) of the same shape."""
    child_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    nested = draw(st.none() | st.sampled_from(child_names))
    children = []
    for child in child_names:
        if child != nested:
            children.append(XsdElement(name=child, atom=draw(atoms)))
        elif depth == 0 or draw(st.booleans()):
            children.append(XsdElement(name=child, atom=draw(atoms), repeated=True))
        else:
            inner = draw(flattenable(depth - 1, child))
            children.append(
                XsdElement(name=child, complex=inner.complex, repeated=draw(st.booleans()))
            )
    return XsdElement(name=name or draw(names), complex=XsdComplex(tuple(children)))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_flattenable_answers_decode_to_the_reference_rows(data) -> None:
    """Nested levels, repeated atomic leaves, empty and absent repeats:
    the rows are the reference's, one per innermost repeated instance."""
    output = data.draw(flattenable(name="Response"))
    operation = WsdlOperation("Op", OPERATION.input_element, output)
    payload = data.draw(payloads(output))
    response = soap.encode_response(operation, payload)
    kind, rows = assert_same("decode_response", operation, response)
    assert kind == "ok" and type(rows) is tuple
    assert len(rows) == soap.count_rows(output, payload)
    assert [len(row) for row in rows] == [len(output.codec.flattening.columns)] * len(rows)
    assert_same("decode_response", operation, _rearranged(response))


def _rearranged(document: bytes) -> bytes:
    """The same document as a foreign stack might send it: children in
    reverse order, booleans as ``1`` / ``0``, a second copy (with another
    text) of an element that may occur once, an element nobody declared."""
    root = ET.fromstring(document)
    for node in list(root.iter()):
        node[:] = list(node)[::-1]
        if node.text in ("true", "false"):
            node.text = "1" if node.text == "true" else "0"
        if len(node):
            again = copy.deepcopy(node[0])
            again.text = "7" if again.text else None
            node.append(again)
    ET.SubElement(root, "undeclared").text = "x"
    return ET.tostring(root, encoding="utf-8")


@given(call=calls())
@settings(max_examples=200, deadline=None)
def test_foreign_documents_decode_identically(call) -> None:
    operation, arguments, payload = call
    request = _rearranged(soap.encode_request(operation, arguments))
    response = _rearranged(soap.encode_response(operation, payload))
    assert_same("decode_request", operation, request)
    assert_same("decode_response", operation, response)


@given(call=calls(), other=calls())
@settings(max_examples=200, deadline=None)
def test_mismatched_inputs_are_refused_identically(call, other) -> None:
    """Another schema's arguments, payload and documents: whatever the
    reference makes of them — usually an error — the compiled codec does."""
    operation, _, _ = call
    _, arguments, payload = other
    assert_same("encode_request", operation, arguments)
    assert_same("encode_response", operation, payload)
    assert_same("count_rows", operation.output_element, payload)
    assert_same("decode_request", operation, soap.encode_request(*other[:2]))
    assert_same(
        "decode_response", operation, soap.encode_response(other[0], payload)
    )


# -- the paper's services and a chain world --------------------------------------


@pytest.fixture(scope="module")
def registry():
    return build_registry("fast")


def test_query1_wire_bytes_are_pinned(registry) -> None:
    """The 311 calls the benchmark's codec probes replay, then the same
    query through the broker: the bytes it books are the bytes pinned."""
    providers = {provider.uri: provider for provider in registry.providers}
    calls, _, _ = walk_query1()
    total = sum(
        assert_call_identical(
            registry.document(uri).operation(name),
            arguments,
            providers[uri].invoke(name, arguments),
        )
        for uri, _, name, arguments in calls
    )
    assert (len(calls), total) == (311, 204_709)  # 658.2283 bytes per call
    wsmed = WSMED(registry)
    wsmed.import_all()
    result = wsmed.sql(QUERY1_SQL)
    assert result.total_calls == 311
    assert sum(s.bytes_transferred for s in result.call_stats.values()) == total


STANDARD_CALLS = [
    ("GetAllStates", []),
    ("GetPlacesWithin", ["Atlanta", "Georgia", 15.0, "City"]),
    ("GetPlacesWithin", ["Atlanta", "Alaska", 15, "Locale"]),
    ("GetPlaceList", ["Atlanta, GA", 100, True]),
    ("GetPlaceList", ["Nowhere & <Co>, ZZ", 0, False]),
    ("GetInfoByState", ["Colorado"]),
    ("GetPlacesInside", ["80840"]),
    ("GetPlacesInside", ["00000"]),
]


def test_every_standard_operation_is_identical(registry) -> None:
    providers = {
        name: (registry.document(provider.uri).operations[name], provider)
        for provider in registry.providers
        for name in registry.document(provider.uri).operations
    }
    assert set(providers) == {name for name, _ in STANDARD_CALLS}
    for name, arguments in STANDARD_CALLS:
        operation, provider = providers[name]
        assert_call_identical(operation, arguments, provider.invoke(name, arguments))


def test_every_chain_world_operation_is_identical() -> None:
    registry = build_world(chains=2, depth=2).build().registry
    for provider in registry.providers[-2:]:  # the two ``extra_providers``
        argument_lists = [[]]  # a root takes no input: <Chain0Root />
        for operation in registry.document(provider.uri).operations.values():
            keys = []
            for arguments in argument_lists:
                payload = provider.invoke(operation.name, arguments)
                assert_call_identical(operation, arguments, payload)
                keys += [row["key"] for row in payload[f"{operation.name}Result"]["Row"]]
            argument_lists = [[key] for key in keys] + [["no such parent"]]
        assert len(keys) > 10
    root = registry.document(registry.providers[-2].uri).operation("Chain0Root")
    assert soap.encode_request(root, []) == b"<Chain0Root />"
    assert soap.encode_response(root, {"Chain0RootResult": {}}) == (
        b"<Chain0RootResponse><Chain0RootResult /></Chain0RootResponse>"
    )


# -- every refusal, word for word -------------------------------------------------


@pytest.fixture(scope="module")
def documents(registry):
    return {
        document.service_name: document for document in registry.documents.values()
    }


def refusals(documents) -> list[tuple]:
    within = documents["GeoPlaces"].operation("GetPlacesWithin")
    states = documents["GeoPlaces"].operation("GetAllStates")
    by_state = documents["USZip"].operation("GetInfoByState")
    place_list = documents["TerraService"].operation("GetPlaceList")
    rows = {"GetAllStatesResult": {"GeoPlaceDetails": "not a list"}}
    return [
        ("encode_request", within, ["Atlanta"], "takes 4 arguments, got 1"),
        ("encode_request", within, ["Atlanta", "Georgia", "far", "City"],
         "value 'far' does not match schema type Real"),
        ("encode_request", within, ["Atlanta", "Georgia", True, "City"],
         "value True does not match schema type Real"),
        ("encode_request", place_list, ["Atlanta, GA", 1.5, True],
         "value 1.5 does not match schema type Integer"),
        ("encode_request", place_list, ["Atlanta, GA", 1, "true"],
         "value 'true' does not match schema type Boolean"),
        ("encode_response", by_state, {"Bogus": "x"},
         "has keys not in schema: ['Bogus']"),
        ("encode_response", by_state, {}, "is missing 'GetInfoByStateResult'"),
        ("encode_response", by_state, {"GetInfoByStateResult": 7},
         "value 7 does not match schema type Charstring"),
        ("encode_response", by_state, ["x"], "expected a dict payload, got list"),
        ("encode_response", states, rows,
         "repeated element 'GeoPlaceDetails' expects a list payload"),
        ("decode_response", by_state, b"<Other/>",
         "expected response element 'GetInfoByStateResponse', got 'Other'"),
        ("decode_response", by_state, b"<GetInfoByStateResponse/>",
         "is missing child 'GetInfoByStateResult'"),
        ("decode_response", by_state, b"<GetInfoByStateResponse><x>",
         "SOAP document is not well-formed XML: no element found"),
        ("decode_response", states,
         b"<GetAllStatesResponse><GetAllStatesResult><GeoPlaceDetails><Name>x</Name>"
         b"</GeoPlaceDetails></GetAllStatesResult></GetAllStatesResponse>",
         "response element 'GeoPlaceDetails' is missing child 'Type'"),
        ("decode_request", by_state, b"<GetInfoByState><USState>Oh</State>",
         "SOAP document is not well-formed XML: mismatched tag"),
        ("decode_request", within, b"<GetPlacesWithin><place>x</place></GetPlacesWithin>",
         "response element 'GetPlacesWithin' is missing child 'state'"),
        ("decode_request", place_list,
         b"<GetPlaceList><placeName>x</placeName><MaxItems>1</MaxItems>"
         b"<imagePresence>yes</imagePresence></GetPlaceList>",
         "invalid boolean literal 'yes'"),
    ]


def test_every_refusal_has_the_reference_message(documents) -> None:
    for name, operation, argument, message in refusals(documents):
        kind, text = assert_same(name, operation, argument)
        assert kind == "WsdlError", (name, argument)
        assert message in text


# -- the codec stays out of pickles -------------------------------------------------


def test_operation_with_a_used_codec_pickles(documents) -> None:
    """Operations cross the worker pipe inside plan functions and service
    registries; the compiled closures must not ride along."""
    operation = documents["TerraService"].operation("GetPlaceList")
    arguments = ["Atlanta, GA", 100, True]
    before = soap.encode_request(operation, arguments)
    assert "codec" in vars(operation.input_element)
    shipped = pickle.loads(pickle.dumps(operation))
    assert shipped == operation and hash(shipped) == hash(operation)
    assert "codec" not in vars(shipped.input_element)
    assert "parameter_names" not in vars(shipped)
    assert soap.encode_request(shipped, arguments) == before
    assert soap.decode_request(shipped, before) == arguments
