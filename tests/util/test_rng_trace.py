"""Tests for seeded RNG derivation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_rng, stable_hash


def test_stable_hash_is_deterministic() -> None:
    assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)


def test_stable_hash_distinguishes_labels() -> None:
    assert stable_hash(7, "latency") != stable_hash(7, "geodata")


def test_stable_hash_order_matters() -> None:
    assert stable_hash("a", "b") != stable_hash("b", "a")


def test_derive_rng_reproducible_streams() -> None:
    first = [derive_rng(42, "x").random() for _ in range(5)]
    second = [derive_rng(42, "x").random() for _ in range(5)]
    assert first == second


def test_derive_rng_independent_streams() -> None:
    a = derive_rng(42, "a").random()
    b = derive_rng(42, "b").random()
    assert a != b


@given(seed=st.integers(), label=st.text(max_size=20))
@settings(max_examples=50)
def test_derive_rng_never_crashes_and_is_stable(seed, label) -> None:
    assert derive_rng(seed, label).random() == derive_rng(seed, label).random()
