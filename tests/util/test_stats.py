"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import RunningStat, quantile

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_running_stat_empty_mean_is_zero() -> None:
    assert RunningStat().mean == 0.0


def test_running_stat_tracks_aggregates() -> None:
    stat = RunningStat()
    for value in [2.0, 4.0, 9.0]:
        stat.add(value)
    assert stat.count == 3
    assert stat.total == pytest.approx(15.0)
    assert stat.mean == pytest.approx(5.0)
    assert stat.minimum == 2.0
    assert stat.maximum == 9.0


def test_quantile_basics() -> None:
    samples = [1.0, 2.0, 3.0, 4.0]
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 1.0) == 4.0
    assert quantile(samples, 0.5) == pytest.approx(2.5)


def test_quantile_rejects_empty_and_out_of_range() -> None:
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


@given(samples=st.lists(floats, min_size=1, max_size=50), q=st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_quantile_within_sample_range(samples, q) -> None:
    value = quantile(samples, q)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9
    assert not math.isnan(value)
