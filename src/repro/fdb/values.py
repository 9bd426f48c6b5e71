"""Value model of the functional DBMS.

Atomic values are plain Python ``str`` / ``float`` / ``int`` / ``bool`` and
a row is a tuple of them.  A web-service answer is decoded straight into
the rows of its OWF (:mod:`repro.services.soap`): the nested records and
sequences the paper's Fig 2 navigates are never built, the codec walks the
parsed XML instead.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator


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


def value_repr(value: Any) -> str:
    """Compact display form used in plan explanations and test output."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return repr(value)
