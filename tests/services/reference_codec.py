"""Reference SOAP codec: the generic ElementTree walkers, kept as the oracle.

This is the codec ``repro.services.soap`` had before it compiled one per
schema element: build an ElementTree from the payload, ``ET.tostring`` it,
``ET.fromstring`` it back and walk the tree against the schema, re-testing
``is_atomic`` / ``repeated`` on every node.  Slow and obviously right, it
defines the wire bytes and the decoded values the compiled codec must
reproduce (``test_soap_oracle.py``).  Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from repro.fdb.types import AtomicType, BOOLEAN, INTEGER, REAL
from repro.fdb.values import Record, Sequence
from repro.services.wsdl import WsdlOperation, XsdElement
from repro.util.errors import WsdlError


def _atom_to_text(atom: AtomicType, value: Any) -> str:
    if not atom.accepts(value):
        raise WsdlError(f"value {value!r} does not match schema type {atom}")
    if atom is BOOLEAN:
        return "true" if value else "false"
    return str(value)


def _text_to_atom(atom: AtomicType, text: str) -> Any:
    if atom is BOOLEAN:
        if text not in ("true", "false", "1", "0"):
            raise WsdlError(f"invalid boolean literal {text!r}")
        return text in ("true", "1")
    if atom is INTEGER:
        return int(text)
    if atom is REAL:
        return float(text)
    return text


def _build(schema: XsdElement, data: Any, parent: ET.Element) -> None:
    """Append one instance of ``schema`` holding ``data`` under ``parent``."""
    node = ET.SubElement(parent, schema.name)
    if schema.is_atomic:
        node.text = _atom_to_text(schema.atom, data)
        return
    if not isinstance(data, dict):
        raise WsdlError(
            f"element {schema.name!r} is complex; expected a dict payload, "
            f"got {type(data).__name__}"
        )
    unknown = set(data) - {child.name for child in schema.complex.children}
    if unknown:
        raise WsdlError(
            f"payload for {schema.name!r} has keys not in schema: {sorted(unknown)}"
        )
    for child in schema.complex.children:
        if child.repeated:
            instances = data.get(child.name, [])
            if not isinstance(instances, list):
                raise WsdlError(
                    f"repeated element {child.name!r} expects a list payload"
                )
            for instance in instances:
                _build(child, instance, node)
        else:
            if child.name not in data:
                raise WsdlError(
                    f"payload for {schema.name!r} is missing {child.name!r}"
                )
            _build(child, data[child.name], node)


def encode_response(operation: WsdlOperation, payload: Any) -> bytes:
    """Encode a provider payload as response XML per the output schema."""
    holder = ET.Element("soap-body")
    _build(operation.output_element, payload, holder)
    return ET.tostring(holder[0], encoding="utf-8")


def encode_request(operation: WsdlOperation, arguments: list[Any]) -> bytes:
    """Encode positional call arguments as a request document."""
    parameters = operation.input_parameters()
    if len(arguments) != len(parameters):
        raise WsdlError(
            f"operation {operation.name!r} takes {len(parameters)} arguments, "
            f"got {len(arguments)}"
        )
    payload = {name: value for (name, _), value in zip(parameters, arguments)}
    holder = ET.Element("soap-body")
    _build(operation.input_element, payload, holder)
    return ET.tostring(holder[0], encoding="utf-8")


def decode_request(operation: WsdlOperation, text: bytes) -> list[Any]:
    """Decode a request document back to positional arguments."""
    record = _element_to_value(ET.fromstring(text), operation.input_element)
    return [record[name] for name, _ in operation.input_parameters()]


def _element_to_value(node: ET.Element, schema: XsdElement) -> Any:
    if schema.is_atomic:
        return _text_to_atom(schema.atom, node.text or "")
    attrs: dict[str, Any] = {}
    instances: dict[str, list[ET.Element]] = {}
    for child_node in node:
        instances.setdefault(child_node.tag, []).append(child_node)
    for child in schema.complex.children:
        nodes = instances.get(child.name, [])
        if child.repeated:
            attrs[child.name] = Sequence(
                _element_to_value(n, child) for n in nodes
            )
        elif nodes:
            attrs[child.name] = _element_to_value(nodes[0], child)
        else:
            raise WsdlError(
                f"response element {node.tag!r} is missing child {child.name!r}"
            )
    return Record(attrs)


def decode_response(operation: WsdlOperation, text: bytes) -> Sequence:
    """Decode response XML into the value model.

    The result is a :class:`Sequence` holding the converted response
    record, matching the paper's Fig 2 where the output of ``cwo`` is a
    sequence the OWF iterates with the ``in`` operator.
    """
    root = ET.fromstring(text)
    if root.tag != operation.output_element.name:
        raise WsdlError(
            f"expected response element {operation.output_element.name!r}, "
            f"got {root.tag!r}"
        )
    return Sequence([_element_to_value(root, operation.output_element)])


def count_rows(schema: XsdElement, payload: Any) -> int:
    """Number of result rows in a payload: instances of the innermost
    repeated element (1 when the schema has no repeated part).

    The broker uses this for the per-row component of the service time.
    """
    if schema.is_atomic or schema.complex is None or not _has_repeated(schema):
        return 1
    total = 0
    for child in schema.complex.children:
        if child.repeated:
            instances = payload.get(child.name, []) if isinstance(payload, dict) else []
            total += sum(count_rows(child, instance) for instance in instances)
        elif not child.is_atomic and _has_repeated(child) and isinstance(payload, dict):
            total += count_rows(child, payload.get(child.name, {}))
    return total


def _has_repeated(schema: XsdElement) -> bool:
    if schema.is_atomic or schema.complex is None:
        return False
    return any(
        child.repeated or _has_repeated(child) for child in schema.complex.children
    )
