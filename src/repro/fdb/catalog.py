"""The WSMED local database schema.

When a WSDL document is imported, its metadata is stored in these
main-memory tables (Sec. III: "The web service metadata in a WSDL document
is first imported and stored in the WSMED local database").  Queries read
the tables as the ``ws_services``, ``ws_operations``, ``ws_parameters``
and ``ws_result_columns`` views.
"""

from __future__ import annotations

from repro.fdb.storage import Table
from repro.fdb.types import CHARSTRING, INTEGER, TupleType


def _table(name: str, columns: list[tuple[str, object]]) -> Table:
    return Table(name, TupleType(tuple(columns)))  # type: ignore[arg-type]


class Catalog:
    """Metadata tables: services, operations, parameters, result columns."""

    def __init__(self) -> None:
        self.services = _table(
            "ws_services",
            [("uri", CHARSTRING), ("service", CHARSTRING), ("port", CHARSTRING)],
        )
        self.operations = _table(
            "ws_operations",
            [
                ("uri", CHARSTRING),
                ("service", CHARSTRING),
                ("operation", CHARSTRING),
                ("owf", CHARSTRING),
            ],
        )
        self.parameters = _table(
            "ws_parameters",
            [
                ("owf", CHARSTRING),
                ("position", INTEGER),
                ("name", CHARSTRING),
                ("type", CHARSTRING),
            ],
        )
        self.result_columns = _table(
            "ws_result_columns",
            [
                ("owf", CHARSTRING),
                ("position", INTEGER),
                ("name", CHARSTRING),
                ("type", CHARSTRING),
            ],
        )

    def record_service(self, uri: str, service: str, port: str) -> None:
        self.services.insert((uri, service, port))

    def record_operation(
        self,
        uri: str,
        service: str,
        operation: str,
        owf: str,
        parameters: list[tuple[str, str]],
        result_columns: list[tuple[str, str]],
    ) -> None:
        self.operations.insert((uri, service, operation, owf))
        for position, (name, type_name) in enumerate(parameters):
            self.parameters.insert((owf, position, name, type_name))
        for position, (name, type_name) in enumerate(result_columns):
            self.result_columns.insert((owf, position, name, type_name))
