"""Tests for type descriptors."""

import pickle

import pytest

from repro.fdb.types import (
    BOOLEAN,
    CHARSTRING,
    INTEGER,
    REAL,
    BagType,
    RecordType,
    SequenceType,
    TupleType,
    TypeError_,
    _restore_atomic,
)


def test_atomic_accepts() -> None:
    assert CHARSTRING.accepts("x")
    assert not CHARSTRING.accepts(1)
    assert REAL.accepts(1.5)
    assert REAL.accepts(2)  # integers are acceptable reals
    assert not REAL.accepts(True)  # but booleans are not
    assert INTEGER.accepts(3)
    assert not INTEGER.accepts(3.0)
    assert not INTEGER.accepts(False)
    assert BOOLEAN.accepts(True)
    assert not BOOLEAN.accepts("true")


def test_atomic_lookup_by_name() -> None:
    # Unpickling (a plan shipped to a worker) looks atoms up by name, so
    # identity checks like `atom is REAL` survive the round trip.
    assert pickle.loads(pickle.dumps(REAL)) is REAL
    assert _restore_atomic("Charstring") is CHARSTRING
    with pytest.raises(TypeError_):
        _restore_atomic("Decimal").accepts("x")


def test_record_type_field_access() -> None:
    rtype = RecordType((("Name", CHARSTRING), ("Lat", REAL)))
    assert dict(rtype.fields)["Lat"] is REAL
    assert [name for name, _ in rtype.fields] == ["Name", "Lat"]
    assert str(rtype) == "Record<Name: Charstring, Lat: Real>"


def test_tuple_type_columns() -> None:
    ttype = TupleType((("state", CHARSTRING), ("zip", CHARSTRING)))
    assert ttype.column_names() == ["state", "zip"]


def test_display_forms() -> None:
    assert str(BagType(CHARSTRING)) == "Bag of Charstring"
    assert str(SequenceType(REAL)) == "Sequence of Real"
    assert "Charstring name" in str(TupleType((("name", CHARSTRING),)))

