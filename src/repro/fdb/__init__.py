"""Functional main-memory DBMS substrate.

WSMED extends a main-memory *functional* DBMS (Amos II) with web-service
primitives.  This subpackage reproduces the parts of that substrate the
paper relies on:

* the value model — atomic values plus :class:`~repro.fdb.values.Record`,
  :class:`~repro.fdb.values.Sequence` and :class:`~repro.fdb.values.Bag`,
  which is what the ``cwo`` built-in materializes web-service results into
  (Fig 2 of the paper navigates exactly these),
* typed function signatures with binding patterns,
* main-memory tables, used for the WSMED local database
  that stores imported WSDL metadata (Sec. III).
"""

from repro.fdb.values import Bag, Record, Sequence, value_repr
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
    "Record",
    "Sequence",
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
