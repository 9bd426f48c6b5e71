"""Headline paper numbers as regression tests (paper profile).

The full grids live in benchmarks/; here we pin the single most important
measurements so a change that silently breaks the calibration fails the
ordinary test suite, not just the benchmark run.
"""

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, QueryOptions, WSMED


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="paper")
    system.import_all()
    return system


def test_query1_central_matches_paper(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central", name="Query1"))
    assert result.total_calls == 311
    assert len(result) == 360
    # Paper: 244.8 s.
    assert result.elapsed == pytest.approx(244.8, rel=0.05)


def test_query1_best_manual_tree(wsmed) -> None:
    central = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central", name="Query1"))
    best = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], name="Query1"),
    )
    # Paper: 56.4 s at {5,4}, speed-up 4.3.
    assert best.elapsed == pytest.approx(56.4, rel=0.10)
    assert central.elapsed / best.elapsed == pytest.approx(4.3, rel=0.10)


def test_query2_central_matches_paper(wsmed) -> None:
    result = wsmed.sql(QUERY2_SQL, options=QueryOptions(mode="central", name="Query2"))
    assert result.rows == [("CO", "80840")]
    assert result.total_calls == 5001
    # Paper: 2412.95 s.
    assert result.elapsed == pytest.approx(2412.95, rel=0.05)


def test_query2_best_manual_tree(wsmed) -> None:
    central = wsmed.sql(QUERY2_SQL, options=QueryOptions(mode="central", name="Query2"))
    best = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(mode="parallel", fanouts=[4, 3], name="Query2"),
    )
    # Paper: 1243.89 s at {4,3}, "speed up of nearly 2".
    assert best.elapsed == pytest.approx(1243.89, rel=0.05)
    assert central.elapsed / best.elapsed == pytest.approx(2.0, rel=0.10)


def test_adaptive_close_to_best_manual(wsmed) -> None:
    best = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(mode="parallel", fanouts=[4, 3], name="Query2"),
    )
    adaptive = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(mode="adaptive", name="Query2"),
    )
    # Paper: p=2, no drop reaches 96% of the best manual tree.
    assert best.elapsed / adaptive.elapsed > 0.90
