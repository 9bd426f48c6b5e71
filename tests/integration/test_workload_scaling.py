"""Query1 over growing datasets: the adaptive operator stays competitive.

The paper evaluates two fixed workloads.  Growing the Query1 dataset (the
number of states with an Atlanta cluster, i.e. level-two call bursts)
shows what adaptivity buys: the manual vector {5,4} was tuned for one
size, while AFF_APPLYP derives a tree per run.  Paper profile, model time.
"""

import pytest

from repro import QUERY1_SQL, WSMED, AdaptationParams, GeoConfig, QueryOptions, build_registry

ATLANTA_COUNTS = (8, 16, 26, 40)


@pytest.fixture(scope="module")
def sweep() -> list[dict]:
    rows = []
    for count in ATLANTA_COUNTS:
        config = GeoConfig(atlanta_state_count=count, locale_twin_total=4 * count)
        system = WSMED(build_registry("paper", geo_config=config))
        system.import_all()
        central = system.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
        manual = system.sql(
            QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
        )
        adaptive = system.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="adaptive", adaptation=AdaptationParams(p=2)),
        )
        assert manual.as_bag() == central.as_bag() == adaptive.as_bag()
        rows.append(
            {"central": central.elapsed, "manual": manual.elapsed, "adaptive": adaptive.elapsed}
        )
    return rows


def test_central_time_grows_with_the_dataset(sweep) -> None:
    centrals = [row["central"] for row in sweep]
    assert centrals == sorted(centrals)


def test_parallel_trees_win_at_every_size(sweep) -> None:
    for row in sweep:
        # The tuned tree halves central time or better...
        assert row["manual"] < 0.5 * row["central"]
        # ...and the adaptive tree stays within 60 % of it without re-tuning.
        assert row["adaptive"] < 1.6 * row["manual"]
