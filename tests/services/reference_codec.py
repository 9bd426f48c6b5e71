"""Reference SOAP codec: the generic ElementTree walkers, kept as the oracle.

This is the codec ``repro.services.soap`` had before it compiled one per
schema element: build an ElementTree from the payload, ``ET.tostring`` it,
``ET.fromstring`` it back and walk the tree against the schema, re-testing
``is_atomic`` / ``repeated`` on every node.  A decoded answer is the
functional DBMS value model (:class:`Record` / :class:`Sequence`, the
structures Fig 2 of the paper navigates), which the generic flattening the
OWFs used to run (:func:`flatten`, over levels derived from the output
schema) turns into rows.  Slow and obviously right, it defines the wire
bytes and the decoded rows the compiled codec must reproduce
(``test_soap_oracle.py``).  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.fdb.types import AtomicType, BOOLEAN, INTEGER, REAL
from repro.fdb.values import value_repr
from repro.services.wsdl import WsdlOperation, XsdElement
from repro.util.errors import WsdlError


# -- the value model a decoded answer used to be ------------------------------


class Record:
    """An attribute/value record.  ``record[attr]`` accesses an attribute.

    Attribute names are case-sensitive, matching the generated OWFs which
    use the exact element names from the WSDL.  Lookup of a missing
    attribute raises ``KeyError`` with the available names, because a typo
    in a flattening path should fail loudly.
    """

    __slots__ = ("_attrs",)

    def __init__(self, attrs: dict[str, Any] | Iterable[tuple[str, Any]] = ()) -> None:
        self._attrs = dict(attrs)

    def __getitem__(self, name: str) -> Any:
        try:
            return self._attrs[name]
        except KeyError:
            available = ", ".join(sorted(self._attrs)) or "<empty>"
            raise KeyError(
                f"record has no attribute {name!r}; available: {available}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def get(self, name: str, default: Any = None) -> Any:
        return self._attrs.get(name, default)

    def attributes(self) -> list[str]:
        return list(self._attrs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, _hashable(v)) for k, v in self._attrs.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {value_repr(v)}" for k, v in self._attrs.items())
        return f"{{{inner}}}"


class Sequence:
    """An ordered collection; ``for x in seq`` iterates its elements."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = list(items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and self._items == other._items

    def __hash__(self) -> int:
        return hash(tuple(_hashable(item) for item in self._items))

    def __repr__(self) -> str:
        return "[" + ", ".join(value_repr(item) for item in self._items) + "]"


def _hashable(value: Any) -> Any:
    if isinstance(value, (Record, Sequence)):
        return hash(value)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


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


def _parse(text: bytes) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as error:
        raise WsdlError(f"SOAP document is not well-formed XML: {error}") from error


def decode_request(operation: WsdlOperation, text: bytes) -> list[Any]:
    """Decode a request document back to positional arguments."""
    record = _element_to_value(_parse(text), operation.input_element)
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


def decode_value(operation: WsdlOperation, text: bytes) -> Sequence:
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
    return Sequence([_element_to_value(root, operation.output_element)])


def decode_response(operation: WsdlOperation, text: bytes) -> tuple[tuple, ...]:
    """Decode response XML into the rows of the operation's OWF: the value
    model, flattened by levels derived from the output schema first — an
    OWF refused a schema it cannot flatten at import, before any call."""
    levels = build_levels(operation.output_element)
    return flatten(levels, decode_value(operation, text))


# -- the OWF flattening, as it walked the value model --------------------------


@dataclass(frozen=True)
class Level:
    """One flattening level: columns to read here, plus how to descend."""

    atomic_columns: tuple[str, ...]
    descend: str | None  # child element name to recurse into (None = leaf)
    descend_repeated: bool


def build_levels(element: XsdElement) -> list[Level]:
    """Derive the flattening levels under a complex ``element``.

    At most one non-atomic child per level is supported — the shape of all
    data providing services the paper uses (a single nested collection).
    More than one would require a cross product with no defined order, so
    it is rejected.
    """
    if element.complex is None:
        raise WsdlError(f"element {element.name!r} is atomic, cannot flatten")
    atomics = []
    complexes = []
    for child in element.complex.children:
        if child.is_atomic and not child.repeated:
            atomics.append(child.name)
        else:
            complexes.append(child)
    if len(complexes) > 1:
        names = ", ".join(c.name for c in complexes)
        raise WsdlError(
            f"result element {element.name!r} has multiple nested collections "
            f"({names}); WSMED flattening supports a single nested path"
        )
    if not complexes:
        return [Level(tuple(atomics), None, False)]
    child = complexes[0]
    if child.is_atomic:  # a repeated atomic: one column named after it
        return [
            Level(tuple(atomics), child.name, True),
            Level((child.name,), None, False),
        ]
    return [Level(tuple(atomics), child.name, child.repeated)] + build_levels(child)


def flatten(levels: list[Level], out: Sequence) -> tuple[tuple, ...]:
    """The rows of a decoded answer (Fig 2: ``for response in out``)."""
    rows: list[tuple] = []
    for response in out:
        _flatten(levels, response, 0, (), rows)
    return tuple(rows)


def _flatten(levels, value, level_index: int, prefix: tuple, rows: list[tuple]) -> None:
    level = levels[level_index]
    if not isinstance(value, Record):
        # A repeated atomic leaf: the value itself is the column.
        rows.append(prefix + (value,))
        return
    here = prefix + tuple([value[column] for column in level.atomic_columns])
    if level.descend is None:
        rows.append(here)
        return
    child_value = value[level.descend]
    if level.descend_repeated:
        for instance in child_value:
            _flatten(levels, instance, level_index + 1, here, rows)
    else:
        _flatten(levels, child_value, level_index + 1, here, rows)


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
