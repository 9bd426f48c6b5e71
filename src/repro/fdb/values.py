"""Value model of the functional DBMS.

Web-service results are temporarily materialized in the local store as
nested :class:`Record` and :class:`Sequence` objects (the paper's Fig 2
navigates them with ``r[a]`` attribute access and the ``in`` operator).
Atomic values are plain Python ``str`` / ``float`` / ``int`` / ``bool``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator


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


class Bag:
    """An unordered collection with duplicates — the result type of OWFs.

    Equality is multiset equality, so tests comparing query results are not
    sensitive to delivery order (parallel plans deliver first-finished).
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = list(items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: Any) -> None:
        self._items.append(item)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        if len(self._items) != len(other._items):
            return False
        return _sorted_by_repr(self._items) == _sorted_by_repr(other._items)

    def __repr__(self) -> str:
        return "Bag(" + ", ".join(value_repr(item) for item in self._items) + ")"


def _sorted_by_repr(items: list[Any]) -> list[Any]:
    return sorted(items, key=repr)


def _hashable(value: Any) -> Any:
    if isinstance(value, (Record, Sequence)):
        return hash(value)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def value_repr(value: Any) -> str:
    """Compact display form used in plan explanations and test output."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return repr(value)
