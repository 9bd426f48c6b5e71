"""SOAP-style encoding and decoding of operation payloads.

Providers return plain Python data (dicts / lists / atoms).  The broker
encodes that into a response XML document guided by the operation's WSDL
output schema, and the client side (``cwo``) decodes the XML straight into
the typed tuples the paper's generated OWF produces (Fig 2): the answer is
flattened once, here, and travels, is memoized and is joined as rows.
Round-tripping through real XML text keeps the substrate honest: a schema
mismatch fails the same way a real doc/literal endpoint would.

The codec of a schema element is *derived once* from the WSDL
(:class:`Codec`, cached as ``XsdElement.codec``): the per-call functions
run closures over pre-rendered tags and never walk the schema.  Its
flattening is the only projection a decoded answer has, because each
operation has one OWF, whose levels depend on the output element alone.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from functools import cached_property, partial
from typing import Any, Callable, NamedTuple

from repro.fdb.types import AtomicType, BOOLEAN, CHARSTRING, INTEGER, REAL
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


def _read(node: ET.Element, columns: list) -> list:
    """The converted texts of ``node``'s atomic ``columns``, in order."""
    values = []
    for name, from_text in columns:
        child = node.find(name)
        if child is None:
            raise WsdlError(f"response element {node.tag!r} is missing child {name!r}")
        values.append(from_text(child.text or ""))
    return values


def _flattening(schema: XsdElement) -> tuple[list, Callable[[ET.Element], list]]:
    """Compile the OWF flattening of a complex ``schema`` (paper Fig 2):
    ``(columns, decode)``, where ``decode(node)`` lists the node's rows.

    Atomic children become columns; the one repeated or complex child is
    descended into, so a row is one instance of the innermost repeated
    element, and a repeated atomic child is a column of its own.  Children
    are read in declared order, the order a walk of the whole document
    checks them in.  ``find`` / ``findall`` match by tag in C, so a
    document's children may come in any order and undeclared ones are
    skipped, as a lax stack does.  More than one nested child would need a
    cross product with no defined order, so it is refused — before any
    document is read, as at import.
    """
    if schema.complex is None:
        raise WsdlError(f"element {schema.name!r} is atomic, cannot flatten")
    head, tail, nested, columns = [], [], [], []
    for child in schema.complex.children:
        if child.is_atomic and not child.repeated:
            (tail if nested else head).append((child.name, _FROM_TEXT.get(child.atom, str)))
            columns.append((child.name, child.atom))
        else:
            nested.append(child)
    if len(nested) > 1:
        names = ", ".join(child.name for child in nested)
        raise WsdlError(
            f"result element {schema.name!r} has multiple nested collections "
            f"({names}); WSMED flattening supports a single nested path"
        )
    child = nested[0] if nested else None
    from_text = inner = None
    if child is None:
        name = repeated = None
    elif child.is_atomic:  # a repeated atomic: one column named after it
        name, repeated, from_text = child.name, True, _FROM_TEXT.get(child.atom, str)
        columns.append((name, child.atom))
    else:
        name, repeated = child.name, child.repeated
        below, inner = _flattening(child)
        columns += below

    def rows(node: ET.Element) -> list:
        values = _read(node, head)
        if child is None:
            return [tuple(values)]
        if from_text is not None:
            found = [(from_text(item.text or ""),) for item in node.findall(name)]
        elif repeated:
            found = [row for item in node.findall(name) for row in inner(item)]
        else:
            item = node.find(name)
            if item is None:
                raise WsdlError(f"response element {node.tag!r} is missing child {name!r}")
            found = inner(item)
        if tail:
            values += _read(node, tail)
        if not values:
            return found
        prefix = tuple(values)
        return [prefix + row for row in found]

    return columns, rows


class Flattening(NamedTuple):
    """An element's rows: its ``(name, atom)`` columns, and
    ``decode(parsed node) -> tuple of rows``."""

    columns: tuple[tuple[str, AtomicType], ...]
    decode: Callable[[ET.Element], tuple]


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
        self._schema = schema
        encode = _encoder(schema)
        self.encode = lambda data: encode(data).encode("utf-8", "xmlcharrefreplace")
        self.count_rows = _row_counter(schema) or (lambda payload: 1)

    @cached_property
    def flattening(self) -> Flattening:
        """The element's rows, compiled on first use: a schema no OWF can
        flatten is still one a provider's documents are encoded in."""
        columns, decode = _flattening(self._schema)
        return Flattening(tuple(columns), lambda node: tuple(decode(node)))


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
    """Decode a request document back to positional arguments: the one
    row of the flat input element."""
    (row,) = operation.input_element.codec.flattening.decode(_parse(text))
    return list(row)


def decode_response(operation: WsdlOperation, text: bytes) -> tuple[tuple, ...]:
    """Decode response XML straight into its OWF's rows.

    The rows are what the OWF of Fig 2 makes of ``cwo``'s answer: one tuple
    of typed atoms per instance of the innermost repeated element (one row
    when nothing repeats), columns as in ``codec.flattening.columns``.
    """
    element = operation.output_element
    decode = element.codec.flattening.decode
    root = _parse(text)
    if root.tag != element.name:
        raise WsdlError(
            f"expected response element {element.name!r}, got {root.tag!r}"
        )
    return decode(root)


def count_rows(schema: XsdElement, payload: Any) -> int:
    """Number of result rows in a payload: instances of the innermost
    repeated element (1 when the schema has no repeated part).

    The broker uses this for the per-row component of the service time.
    """
    return schema.codec.count_rows(payload)
