"""Tests for the Bag value model, and for the Record/Sequence value model a
decoded answer used to be, kept beside the reference codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdb.values import Bag, value_repr
from tests.services.reference_codec import Record, Sequence


def test_record_attribute_access() -> None:
    record = Record({"State": "GA", "LatDegrees": 33.7})
    assert record["State"] == "GA"
    assert record["LatDegrees"] == pytest.approx(33.7)


def test_record_missing_attribute_lists_available() -> None:
    record = Record({"Name": "Atlanta"})
    with pytest.raises(KeyError, match="Name"):
        record["Stat"]


def test_record_contains_and_get() -> None:
    record = Record({"a": 1})
    assert "a" in record
    assert "b" not in record
    assert record.get("b", "fallback") == "fallback"


def test_record_equality_ignores_insertion_order() -> None:
    assert Record({"a": 1, "b": 2}) == Record({"b": 2, "a": 1})


def test_record_repr_is_compact() -> None:
    assert repr(Record({"x": "y"})) == "{x: 'y'}"


def test_sequence_iteration_and_indexing() -> None:
    seq = Sequence([10, 20, 30])
    assert list(seq) == [10, 20, 30]
    assert len(seq) == 3
    assert seq[1] == 20


def test_nested_record_sequence_navigation_like_fig2() -> None:
    # Mirrors the navigation in the generated OWF of the paper's Fig 2:
    # out -> element in sequence -> record attr -> sequence -> record attr.
    out = Sequence(
        [
            Record(
                {
                    "GetAllStatesResult": Sequence(
                        [
                            Record({"GeoPlaceDetails": Record({"State": "GA"})}),
                            Record({"GeoPlaceDetails": Record({"State": "TX"})}),
                        ]
                    )
                }
            )
        ]
    )
    states = []
    for result1 in out:
        for result in result1["GetAllStatesResult"]:
            states.append(result["GeoPlaceDetails"]["State"])
    assert states == ["GA", "TX"]


def test_bag_is_order_insensitive() -> None:
    assert Bag([("a", 1), ("b", 2)]) == Bag([("b", 2), ("a", 1)])


def test_bag_respects_multiplicity() -> None:
    assert Bag([1, 1, 2]) != Bag([1, 2, 2])
    assert Bag([1, 1]) != Bag([1])


def test_bag_add() -> None:
    bag = Bag()
    bag.add("x")
    assert len(bag) == 1
    assert list(bag) == ["x"]


def test_value_repr_forms() -> None:
    assert value_repr("s") == "'s'"
    assert value_repr(True) == "true"
    assert value_repr(False) == "false"
    assert value_repr(15.0) == "15"
    assert value_repr(3) == "3"


scalars = st.one_of(
    st.text(max_size=8), st.integers(-100, 100), st.booleans(), st.floats(-10, 10)
)


@given(pairs=st.dictionaries(st.text(min_size=1, max_size=6), scalars, max_size=6))
@settings(max_examples=50)
def test_record_roundtrip_and_hash_consistency(pairs) -> None:
    left, right = Record(pairs), Record(dict(pairs))
    assert left == right
    assert hash(left) == hash(right)
    for key, value in pairs.items():
        assert left[key] == value or (value != value)  # NaN compares unequal


@given(items=st.lists(scalars, max_size=10))
@settings(max_examples=50)
def test_bag_equality_is_permutation_invariant(items) -> None:
    reversed_bag = Bag(list(reversed(items)))
    assert Bag(items) == reversed_bag
