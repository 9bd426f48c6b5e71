"""Main-memory tables.

Used for the WSMED local database: imported WSDL metadata (services,
operations, parameters) is stored here, and queries read it through the
catalog views.  The implementation is a straightforward row-store;
queries over web services never touch disk in WSMED either.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.fdb.types import TupleType
from repro.util.errors import ReproError


class StorageError(ReproError):
    """Raised on schema violations: wrong arity or a mistyped value."""


class Table:
    """A named, schema-checked, main-memory row store.

    Rows are plain tuples in column order.
    """

    def __init__(self, name: str, row_type: TupleType) -> None:
        self.name = name
        self.row_type = row_type
        self._rows: list[tuple] = []

    # -- updates ----------------------------------------------------------------

    def insert(self, row: Iterable[Any]) -> None:
        stored = tuple(row)
        if len(stored) != len(self.row_type.columns):
            raise StorageError(
                f"table {self.name!r} expects {len(self.row_type.columns)} columns, "
                f"got {len(stored)}"
            )
        for (column, atom), value in zip(self.row_type.columns, stored):
            if value is not None and not atom.accepts(value):
                raise StorageError(
                    f"column {column!r} of table {self.name!r} expects {atom}, "
                    f"got {value!r}"
                )
        self._rows.append(stored)

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[tuple]:
        return iter(self._rows)
