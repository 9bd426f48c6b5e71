"""The `fast` profile preserves the paper profile's qualitative shape.

Unit and property tests all run under `fast` (x0.01 time constants) on
the assumption that only the scale changes.  This test pins that
assumption: the relative ordering of tree configurations matches across
profiles.
"""

import pytest

from repro import QUERY1_SQL, QueryOptions, WSMED

CONFIGS = ([1, 1], [2, 2], [5, 4], [7, 5])


@pytest.fixture(scope="module")
def timings():
    results = {}
    for profile in ("paper", "fast"):
        system = WSMED(profile=profile)
        system.import_all()
        results[profile] = {
            tuple(fanouts): system.sql(
                QUERY1_SQL,
                options=QueryOptions(mode="parallel", fanouts=fanouts),
            ).elapsed
            for fanouts in CONFIGS
        }
        results[profile]["central"] = system.sql(QUERY1_SQL).elapsed
    return results


def test_orderings_match(timings) -> None:
    def ranking(profile):
        return sorted(timings[profile], key=lambda key: timings[profile][key])

    assert ranking("paper") == ranking("fast")


def test_fast_is_a_uniform_rescale(timings) -> None:
    # Time constants scale by 0.01; degradation multipliers are unitless,
    # so every configuration's time scales by very nearly the same factor.
    ratios = [
        timings["paper"][key] / timings["fast"][key] for key in timings["paper"]
    ]
    assert max(ratios) / min(ratios) < 1.05
    assert all(95 < ratio < 105 for ratio in ratios)
