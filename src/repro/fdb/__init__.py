"""Functional main-memory DBMS substrate.

WSMED extends a main-memory *functional* DBMS (Amos II) with web-service
primitives.  This subpackage reproduces the parts of that substrate the
paper relies on:

* the value model — atomic values, rows of them and
  :class:`~repro.fdb.values.Bag`, the result type of OWFs (``cwo``'s
  answers are decoded straight into an OWF's rows),
* typed function signatures with binding patterns,
* main-memory tables, used for the WSMED local database
  that stores imported WSDL metadata (Sec. III).
"""

from repro.fdb.values import Bag, value_repr
from repro.fdb.types import (
    AtomicType,
    BagType,
    BOOLEAN,
    CHARSTRING,
    INTEGER,
    REAL,
    RecordType,
    SequenceType,
    TupleType,
    TypeError_,
)
from repro.fdb.storage import Table
from repro.fdb.functions import FunctionDef, FunctionKind, FunctionRegistry, Parameter
from repro.fdb.catalog import Catalog

__all__ = [
    "Bag",
    "value_repr",
    "AtomicType",
    "BagType",
    "BOOLEAN",
    "CHARSTRING",
    "INTEGER",
    "REAL",
    "RecordType",
    "SequenceType",
    "TupleType",
    "TypeError_",
    "Table",
    "FunctionDef",
    "FunctionKind",
    "FunctionRegistry",
    "Parameter",
    "Catalog",
]
