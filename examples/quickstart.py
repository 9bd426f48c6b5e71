"""Quickstart: import WSDLs, run a query, compare execution modes.

Run with::

    python examples/quickstart.py

Times are model seconds on the simulated kernel — directly comparable to
the paper's wall-clock measurements while finishing instantly.
"""

from repro import QUERY1_SQL, QueryOptions, WSMED


def main() -> None:
    # Build the mediator against the calibrated "paper" cost profile and
    # import every published WSDL; this generates one flattened SQL view
    # per web-service operation.
    wsmed = WSMED(profile="paper")
    views = wsmed.import_all()
    print(f"imported {len(views)} operation wrapper functions: {', '.join(views)}")
    print()

    # A first query over a single view.
    result = wsmed.sql(
        "SELECT gs.Name, gs.LatDegrees FROM GetAllStates gs "
        "WHERE gs.State = 'Colorado'"
    )
    print("Colorado:", result.as_dicts()[0])
    print()

    # The paper's Query1 (Fig 1): places within 15 km of each city named
    # 'Atlanta', in three execution modes.
    central = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central", name="Query1"))
    parallel = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], name="Query1"),
    )
    adaptive = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="adaptive", name="Query1"),
    )

    print(f"Query1 returns {len(central)} rows via {central.total_calls} web service calls")
    print(f"  central plan        : {central.elapsed:8.1f} s")
    print(f"  parallel plan {{5,4}} : {parallel.elapsed:8.1f} s "
          f"(speed-up {central.elapsed / parallel.elapsed:.1f}x)")
    print(f"  adaptive plan       : {adaptive.elapsed:8.1f} s "
          f"(speed-up {central.elapsed / adaptive.elapsed:.1f}x, "
          f"no fanout tuning needed)")

    assert parallel.as_bag() == central.as_bag() == adaptive.as_bag()


if __name__ == "__main__":
    main()
