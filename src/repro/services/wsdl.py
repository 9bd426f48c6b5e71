"""WSDL document model and parser.

WSMED "enables general query capabilities over data accessible through any
data providing web service by reading the WSDL meta-data description".  We
keep that property: the simulated providers publish genuine WSDL XML
(document/literal style), and everything downstream — catalog metadata, OWF
generation, result decoding — is derived from parsing these documents, not
hard-wired to the four known services.

The supported WSDL subset: ``definitions > types > schema`` with element
declarations using inline ``complexType/sequence``, ``portType`` operations
referencing request/response elements, and a ``service/port`` pair.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.fdb.types import AtomicType, BOOLEAN, CHARSTRING, INTEGER, REAL
from repro.util.errors import WsdlError

# XSD atomic type -> database atomic type.
_XSD_ATOMS: dict[str, AtomicType] = {
    "string": CHARSTRING,
    "double": REAL,
    "float": REAL,
    "decimal": REAL,
    "int": INTEGER,
    "integer": INTEGER,
    "long": INTEGER,
    "short": INTEGER,
    "boolean": BOOLEAN,
}


def _declared_fields(self) -> dict:
    """Pickled state: the declared fields only.  What was derived from them
    (a compiled codec is closures) stays behind; the far side derives its own."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class XsdElement:
    """A schema element: either atomic (``atom`` set) or complex."""

    name: str
    atom: AtomicType | None = None
    complex: "XsdComplex | None" = None
    repeated: bool = False

    @property
    def is_atomic(self) -> bool:
        return self.atom is not None

    @cached_property
    def codec(self):
        """The SOAP codec of this element's documents, compiled once."""
        from repro.services.soap import Codec  # soap imports this module

        return Codec(self)

    __getstate__ = _declared_fields

    def __post_init__(self) -> None:
        if (self.atom is None) == (self.complex is None):
            raise WsdlError(
                f"element {self.name!r} must be exactly one of atomic/complex"
            )


@dataclass(frozen=True)
class XsdComplex:
    """An inline complex type: an ordered sequence of child elements."""

    children: tuple[XsdElement, ...] = field(default=())


@dataclass(frozen=True)
class WsdlOperation:
    """One operation: request element (inputs) and response element."""

    name: str
    input_element: XsdElement
    output_element: XsdElement

    def input_parameters(self) -> list[tuple[str, AtomicType]]:
        """The operation's input parameters, in declared order.

        Inputs must be atomic — data providing services take scalar
        parameters (Sec. I) — so a complex input is a schema error.
        """
        if self.input_element.complex is None:
            raise WsdlError(
                f"operation {self.name!r} request element is not complex"
            )
        parameters = []
        for child in self.input_element.complex.children:
            if not child.is_atomic:
                raise WsdlError(
                    f"operation {self.name!r} input {child.name!r} is not atomic"
                )
            parameters.append((child.name, child.atom))
        return parameters

    @cached_property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.input_parameters())

    __getstate__ = _declared_fields


@dataclass(frozen=True)
class WsdlDocument:
    """A parsed WSDL document."""

    uri: str
    name: str
    target_namespace: str
    service_name: str
    port_name: str
    operations: dict[str, WsdlOperation]

    def operation(self, name: str) -> WsdlOperation:
        try:
            return self.operations[name]
        except KeyError:
            known = ", ".join(sorted(self.operations))
            raise WsdlError(
                f"service {self.service_name!r} has no operation {name!r}; "
                f"operations: {known}"
            ) from None


def _local(tag: str) -> str:
    """Strip any XML namespace from a tag."""
    return tag.rsplit("}", 1)[-1]


def _children(node: ET.Element, name: str) -> list[ET.Element]:
    return [child for child in node if _local(child.tag) == name]


def _only_child(node: ET.Element, name: str, context: str) -> ET.Element:
    found = _children(node, name)
    if len(found) != 1:
        raise WsdlError(
            f"{context}: expected exactly one <{name}>, found {len(found)}"
        )
    return found[0]


def _parse_element(node: ET.Element) -> XsdElement:
    name = node.get("name")
    if not name:
        raise WsdlError("schema <element> without a name attribute")
    repeated = node.get("maxOccurs", "1") == "unbounded"
    type_name = node.get("type")
    if type_name is not None:
        atom_key = type_name.rsplit(":", 1)[-1]
        atom = _XSD_ATOMS.get(atom_key)
        if atom is None:
            raise WsdlError(f"element {name!r} has unsupported type {type_name!r}")
        return XsdElement(name=name, atom=atom, repeated=repeated)
    complex_nodes = _children(node, "complexType")
    if len(complex_nodes) != 1:
        raise WsdlError(
            f"element {name!r} needs a type attribute or inline <complexType>"
        )
    sequence_nodes = _children(complex_nodes[0], "sequence")
    children: tuple[XsdElement, ...] = ()
    if sequence_nodes:
        children = tuple(
            _parse_element(child)
            for child in sequence_nodes[0]
            if _local(child.tag) == "element"
        )
    return XsdElement(name=name, complex=XsdComplex(children), repeated=repeated)


_ATOM_TO_XSD = {
    "Charstring": "string",
    "Real": "double",
    "Integer": "int",
    "Boolean": "boolean",
}


def _render_element(element: XsdElement, indent: str) -> list[str]:
    occurs = ' maxOccurs="unbounded"' if element.repeated else ""
    if element.is_atomic:
        xsd = _ATOM_TO_XSD[element.atom.name]
        return [f'{indent}<element name="{element.name}" type="xsd:{xsd}"{occurs}/>']
    lines = [f'{indent}<element name="{element.name}"{occurs}>']
    lines.append(f"{indent}  <complexType><sequence>")
    for child in element.complex.children:
        lines.extend(_render_element(child, indent + "    "))
    lines.append(f"{indent}  </sequence></complexType>")
    lines.append(f"{indent}</element>")
    return lines


def render_wsdl(document: WsdlDocument) -> str:
    """Serialize a document model back to WSDL XML.

    ``parse_wsdl(render_wsdl(doc), doc.uri)`` reconstructs an equal model,
    so programmatically-built services can publish real WSDL text the same
    way the built-in providers do.
    """
    lines = [
        f'<definitions name="{document.name}" '
        f'targetNamespace="{document.target_namespace}">',
        "  <types>",
        "    <schema>",
    ]
    seen: set[str] = set()
    for operation in document.operations.values():
        for element in (operation.input_element, operation.output_element):
            if element.name not in seen:
                seen.add(element.name)
                lines.extend(_render_element(element, "      "))
    lines.append("    </schema>")
    lines.append("  </types>")
    lines.append(f'  <portType name="{document.port_name}">')
    for operation in document.operations.values():
        lines.append(f'    <operation name="{operation.name}">')
        lines.append(f'      <input element="{operation.input_element.name}"/>')
        lines.append(f'      <output element="{operation.output_element.name}"/>')
        lines.append("    </operation>")
    lines.append("  </portType>")
    lines.append(f'  <service name="{document.service_name}">')
    lines.append(f'    <port name="{document.port_name}"/>')
    lines.append("  </service>")
    lines.append("</definitions>")
    return "\n".join(lines)


def parse_wsdl(text: str, uri: str) -> WsdlDocument:
    """Parse WSDL XML ``text`` fetched from ``uri`` into a document model."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as error:
        raise WsdlError(f"WSDL at {uri!r} is not well-formed XML: {error}") from error
    if _local(root.tag) != "definitions":
        raise WsdlError(f"WSDL at {uri!r} does not start with <definitions>")

    types_node = _only_child(root, "types", uri)
    schema_node = _only_child(types_node, "schema", uri)
    elements: dict[str, XsdElement] = {}
    for node in _children(schema_node, "element"):
        element = _parse_element(node)
        if element.name in elements:
            raise WsdlError(f"duplicate schema element {element.name!r}")
        elements[element.name] = element

    port_type = _only_child(root, "portType", uri)
    operations: dict[str, WsdlOperation] = {}
    for op_node in _children(port_type, "operation"):
        op_name = op_node.get("name")
        if not op_name:
            raise WsdlError("portType <operation> without a name")
        input_ref = _only_child(op_node, "input", op_name).get("element")
        output_ref = _only_child(op_node, "output", op_name).get("element")
        for ref in (input_ref, output_ref):
            if ref not in elements:
                raise WsdlError(
                    f"operation {op_name!r} references unknown element {ref!r}"
                )
        operations[op_name] = WsdlOperation(
            name=op_name,
            input_element=elements[input_ref],
            output_element=elements[output_ref],
        )

    service_node = _only_child(root, "service", uri)
    service_name = service_node.get("name")
    if not service_name:
        raise WsdlError("service without a name")
    port_node = _only_child(service_node, "port", service_name)
    return WsdlDocument(
        uri=uri,
        name=root.get("name", service_name),
        target_namespace=root.get("targetNamespace", ""),
        service_name=service_name,
        port_name=port_node.get("name", service_name),
        operations=operations,
    )
