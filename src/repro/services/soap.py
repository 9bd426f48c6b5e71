"""SOAP-style encoding and decoding of operation payloads.

Providers return plain Python data (dicts / lists / atoms).  The broker
encodes that into a response XML document guided by the operation's WSDL
output schema, and the client side (``cwo``) decodes the XML back into the
functional DBMS value model (:class:`Record` / :class:`Sequence`) — the
structures the paper's generated OWFs navigate in Fig 2.  Round-tripping
through real XML text keeps the substrate honest: a schema mismatch fails
the same way a real doc/literal endpoint would.

Like the OWF, the codec of a schema element is *derived once* from the
WSDL (:class:`Codec`, cached as ``XsdElement.codec``): the per-call
functions run closures over pre-rendered tags and never walk the schema.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from functools import partial
from typing import Any, Callable

from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL
from repro.fdb.values import Record, Sequence
from repro.services.wsdl import WsdlOperation, XsdElement
from repro.util.errors import WsdlError

# Every character XML 1.0 text cannot carry as itself: markup and CR (a
# parser reads a literal CR as LF) travel as references, and whatever is
# outside the Char production cannot travel at all.
_NOT_VERBATIM = re.compile(
    "[^\t\n\x20-\x25\x27-\x3b\x3d\x3f-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)
_REFERENCES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}


def _reference(match: re.Match) -> str:
    if match.group() not in _REFERENCES:
        raise WsdlError(f"character {match.group()!r} is not allowed in XML 1.0 text")
    return _REFERENCES[match.group()]


def _boolean(text: str) -> bool:
    if text not in ("true", "false", "1", "0"):
        raise WsdlError(f"invalid boolean literal {text!r}")
    return text in ("true", "1")


# Per atom: how a checked value becomes text (default ``str``) and how text
# becomes a value again (default: it is one).
_TO_TEXT = {
    CHARSTRING: partial(_NOT_VERBATIM.sub, _reference),
    BOOLEAN: {True: "true", False: "false"}.__getitem__,
}
_FROM_TEXT = {BOOLEAN: _boolean, INTEGER: int, REAL: float}


def _encoder(schema: XsdElement) -> Callable[[Any], str]:
    """Compile ``data -> XML text`` of one instance of ``schema``."""
    name = schema.name
    opened, closed, empty = f"<{name}>", f"</{name}>", f"<{name} />"
    if schema.is_atomic:
        atom, to_text = schema.atom, _TO_TEXT.get(schema.atom, str)

        def encode_atom(value: Any) -> str:
            if not atom.accepts(value):
                raise WsdlError(f"value {value!r} does not match schema type {atom}")
            text = to_text(value)
            return opened + text + closed if text else empty

        return encode_atom
    known = frozenset(child.name for child in schema.complex.children)
    children = [
        (child.name, child.repeated, _encoder(child))
        for child in schema.complex.children
    ]

    def encode(data: Any) -> str:
        if not isinstance(data, dict):
            raise WsdlError(
                f"element {name!r} is complex; expected a dict payload, "
                f"got {type(data).__name__}"
            )
        if not data.keys() <= known:
            unknown = sorted(set(data) - known)
            raise WsdlError(f"payload for {name!r} has keys not in schema: {unknown}")
        parts = []
        for key, repeated, encode_child in children:
            if repeated:
                instances = data.get(key, [])
                if not isinstance(instances, list):
                    raise WsdlError(f"repeated element {key!r} expects a list payload")
                parts.extend(map(encode_child, instances))
            elif key in data:
                parts.append(encode_child(data[key]))
            else:
                raise WsdlError(f"payload for {name!r} is missing {key!r}")
        return opened + "".join(parts) + closed if parts else empty

    return encode


def _decoder(schema: XsdElement) -> Callable[[ET.Element], Any]:
    """Compile ``parsed node -> value`` of one instance of ``schema``.

    ``find`` / ``findall`` match by tag in C, so a document's children may
    come in any order and undeclared ones are skipped, as a lax stack does.
    """
    if schema.is_atomic:
        from_text = _FROM_TEXT.get(schema.atom, str)
        return lambda node: from_text(node.text or "")
    children = [
        (child.name, child.repeated, _decoder(child))
        for child in schema.complex.children
    ]

    def decode(node: ET.Element) -> Record:
        attrs = {}
        for name, repeated, decode_child in children:
            if repeated:
                attrs[name] = Sequence(map(decode_child, node.findall(name)))
                continue
            child_node = node.find(name)
            if child_node is None:
                raise WsdlError(
                    f"response element {node.tag!r} is missing child {name!r}"
                )
            attrs[name] = decode_child(child_node)
        return Record(attrs)

    return decode


def _row_counter(schema: XsdElement) -> Callable[[Any], int] | None:
    """Compile ``payload -> row count``; None when nothing below repeats."""
    if schema.is_atomic:
        return None
    parts = []
    for child in schema.complex.children:
        inner = _row_counter(child)
        if child.repeated or inner is not None:
            parts.append((child.name, child.repeated, inner))
    if not parts:
        return None

    def count(payload: Any) -> int:
        if not isinstance(payload, dict):
            return 0
        total = 0
        for name, repeated, inner in parts:
            found = payload.get(name, []) if repeated else [payload.get(name, {})]
            total += len(found) if inner is None else sum(map(inner, found))
        return total

    return count


class Codec:
    """What one schema element's documents need, compiled from it once."""

    def __init__(self, schema: XsdElement) -> None:
        encode = _encoder(schema)
        self.encode = lambda data: encode(data).encode("utf-8", "xmlcharrefreplace")
        self.decode = _decoder(schema)
        self.count_rows = _row_counter(schema) or (lambda payload: 1)


def _parse(text: bytes) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as error:
        raise WsdlError(f"SOAP document is not well-formed XML: {error}") from error


def encode_response(operation: WsdlOperation, payload: Any) -> bytes:
    """Encode a provider payload as response XML per the output schema."""
    return operation.output_element.codec.encode(payload)


def encode_request(operation: WsdlOperation, arguments: list[Any]) -> bytes:
    """Encode positional call arguments as a request document."""
    names = operation.parameter_names
    if len(arguments) != len(names):
        raise WsdlError(
            f"operation {operation.name!r} takes {len(names)} arguments, "
            f"got {len(arguments)}"
        )
    return operation.input_element.codec.encode(dict(zip(names, arguments)))


def decode_request(operation: WsdlOperation, text: bytes) -> list[Any]:
    """Decode a request document back to positional arguments."""
    record = operation.input_element.codec.decode(_parse(text))
    return [record[name] for name in operation.parameter_names]


def decode_response(operation: WsdlOperation, text: bytes) -> Sequence:
    """Decode response XML into the value model.

    The result is a :class:`Sequence` holding the converted response
    record, matching the paper's Fig 2 where the output of ``cwo`` is a
    sequence the OWF iterates with the ``in`` operator.
    """
    root = _parse(text)
    if root.tag != operation.output_element.name:
        raise WsdlError(
            f"expected response element {operation.output_element.name!r}, "
            f"got {root.tag!r}"
        )
    return Sequence([operation.output_element.codec.decode(root)])


def count_rows(schema: XsdElement, payload: Any) -> int:
    """Number of result rows in a payload: instances of the innermost
    repeated element (1 when the schema has no repeated part).

    The broker uses this for the per-row component of the service time.
    """
    return schema.codec.count_rows(payload)
