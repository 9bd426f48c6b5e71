"""Type descriptors for function signatures and WSDL result schemas.

The OWF generator walks a :class:`RecordType`/:class:`SequenceType` tree
describing a web-service result (derived from the WSDL ``types`` section)
to produce a flattening program, exactly as WSMED generates Fig 2 from the
``GetAllStates`` WSDL definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ReproError


class TypeError_(ReproError):
    """Raised on type mismatches; trailing underscore avoids the builtin."""


@dataclass(frozen=True)
class AtomicType:
    """An atomic database type: Charstring, Real, Integer or Boolean."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __reduce__(self):
        # Several call sites compare atoms by identity (`atom is REAL`),
        # so unpickling — e.g. a plan function shipped to a worker
        # process — must yield the module singletons, not copies.
        return (_restore_atomic, (self.name,))

    def accepts(self, value: Any) -> bool:
        if self.name == "Charstring":
            return isinstance(value, str)
        if self.name == "Real":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.name == "Integer":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.name == "Boolean":
            return isinstance(value, bool)
        raise TypeError_(f"unknown atomic type {self.name!r}")


CHARSTRING = AtomicType("Charstring")
REAL = AtomicType("Real")
INTEGER = AtomicType("Integer")
BOOLEAN = AtomicType("Boolean")

_ATOMS = {t.name: t for t in (CHARSTRING, REAL, INTEGER, BOOLEAN)}


def _restore_atomic(name: str) -> AtomicType:
    """Unpickle hook: map an atom name back to its interned singleton."""
    atom = _ATOMS.get(name)
    if atom is not None:
        return atom
    return AtomicType(name)


@dataclass(frozen=True)
class RecordType:
    """A record with named, typed fields (order preserved for display)."""

    fields: tuple[tuple[str, "ValueType"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {ftype}" for name, ftype in self.fields)
        return f"Record<{inner}>"


@dataclass(frozen=True)
class SequenceType:
    """An ordered collection of one element type."""

    element: "ValueType"

    def __str__(self) -> str:
        return f"Sequence of {self.element}"


@dataclass(frozen=True)
class BagType:
    """An unordered collection of one element type (OWF results)."""

    element: "ValueType"

    def __str__(self) -> str:
        return f"Bag of {self.element}"


@dataclass(frozen=True)
class TupleType:
    """A flat tuple of named atomic columns — the row type of OWF views."""

    columns: tuple[tuple[str, AtomicType], ...] = field(default=())

    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def __str__(self) -> str:
        inner = ", ".join(f"{atom} {name}" for name, atom in self.columns)
        return f"<{inner}>"


ValueType = AtomicType | RecordType | SequenceType | BagType | TupleType

