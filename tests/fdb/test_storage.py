"""Tests for main-memory tables."""

import pytest

from repro.fdb.storage import StorageError, Table
from repro.fdb.types import CHARSTRING, INTEGER, TupleType


def make_table() -> Table:
    return Table(
        "places",
        TupleType(
            (("name", CHARSTRING), ("state", CHARSTRING), ("population", INTEGER))
        ),
    )


def test_insert_and_scan() -> None:
    table = make_table()
    table.insert(("Atlanta", "GA", 500000))
    table.insert(("Austin", "TX", 950000))
    assert len(table) == 2
    assert list(table.scan())[0] == ("Atlanta", "GA", 500000)


def test_insert_wrong_arity_rejected() -> None:
    table = make_table()
    with pytest.raises(StorageError, match="3 columns"):
        table.insert(("Atlanta", "GA"))


def test_insert_wrong_type_rejected() -> None:
    table = make_table()
    with pytest.raises(StorageError, match="population"):
        table.insert(("Atlanta", "GA", "many"))


def test_none_values_allowed() -> None:
    table = make_table()
    table.insert(("Atlanta", "GA", None))
    assert list(table.scan()) == [("Atlanta", "GA", None)]
