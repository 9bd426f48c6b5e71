"""Exact seed fingerprints for the paper's Fig 1/Fig 3 queries.

``test_paper_numbers`` pins the headline numbers loosely (they must match
the *paper*); this module pins them **exactly** (they must match the
*seed implementation*, to the last float bit).  Any change to the default
execution path — including additions that are supposed to be off or
side-effect-free by default, like the unified QueryOptions surface —
shows up here first.

If a PR moves these numbers on purpose, that is a calibration change and
the new values must be justified in the PR, not silently re-pinned.
"""

from repro import QUERY1_SQL, QUERY2_SQL, QueryOptions, WSMED

FIG1_CENTRAL_ELAPSED = 245.18603205739868
FIG1_CENTRAL_CALLS = 311
FIG1_BEST_ELAPSED = 59.14651353400834
FIG3_CENTRAL_ELAPSED = 2407.4913388248724
FIG3_CENTRAL_CALLS = 5001


def _paper_system() -> WSMED:
    system = WSMED(profile="paper")
    system.import_all()
    return system


def test_fig1_fingerprint_is_bit_identical() -> None:
    system = _paper_system()
    central = system.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
    assert central.elapsed == FIG1_CENTRAL_ELAPSED
    assert central.total_calls == FIG1_CENTRAL_CALLS
    assert len(central.rows) == 360
    best = system.sql(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
    )
    assert best.elapsed == FIG1_BEST_ELAPSED
    assert best.total_calls == FIG1_CENTRAL_CALLS


def test_fig3_fingerprint_is_bit_identical() -> None:
    system = _paper_system()
    central = system.sql(QUERY2_SQL, options=QueryOptions(mode="central"))
    assert central.elapsed == FIG3_CENTRAL_ELAPSED
    assert central.total_calls == FIG3_CENTRAL_CALLS
    assert central.rows == [("CO", "80840")]
