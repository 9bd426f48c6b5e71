"""Workload scaling: does the adaptive operator stay competitive as the
data grows?

The paper evaluates two fixed workloads.  This bench sweeps the size of
the Query1 workload (number of states containing an Atlanta cluster, i.e.
the number of level-two call bursts) and compares the best manual tree
against AFF_APPLYP at each size.  The point of adaptivity is exactly
this: the manual vector {5,4} was tuned for one workload, while the
adaptive operator re-derives a tree per run.
"""

from repro import WSMED, AdaptationParams, GeoConfig, build_registry, QueryOptions

from benchmarks.harness import QUERY1_SQL

ATLANTA_COUNTS = (8, 16, 26, 40)


def _world(atlanta_states: int) -> WSMED:
    config = GeoConfig(
        atlanta_state_count=atlanta_states,
        locale_twin_total=4 * atlanta_states,
    )
    system = WSMED(build_registry("paper", geo_config=config))
    system.import_all()
    return system


def _sweep():
    rows = []
    for count in ATLANTA_COUNTS:
        system = _world(count)
        central = system.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
        manual = system.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4]),
        )
        adaptive = system.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="adaptive", adaptation=AdaptationParams(p=2)),
        )
        rows.append(
            {
                "atlanta_states": count,
                "calls": central.total_calls,
                "central": central.elapsed,
                "manual": manual.elapsed,
                "adaptive": adaptive.elapsed,
                "rows": len(central),
            }
        )
        assert manual.as_bag() == central.as_bag() == adaptive.as_bag()
    return rows


def test_scaling(benchmark) -> None:
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print("Workload scaling — Query1 with varying Atlanta-cluster counts:")
    print(f"{'states':>7} {'calls':>6} {'central':>9} {'manual{5,4}':>12} {'adaptive':>9}")
    for row in rows:
        print(
            f"{row['atlanta_states']:>7} {row['calls']:>6} "
            f"{row['central']:>9.1f} {row['manual']:>12.1f} {row['adaptive']:>9.1f}"
        )

    # Work (and central time) grows with the dataset.
    centrals = [row["central"] for row in rows]
    assert centrals == sorted(centrals)
    for row in rows:
        # Parallel execution always wins clearly...
        assert row["manual"] < 0.5 * row["central"]
        # ...and the adaptive tree stays within 60% of the tuned manual
        # tree at every size without re-tuning.
        assert row["adaptive"] < 1.6 * row["manual"]


def main() -> None:
    for row in _sweep():
        print(row)


if __name__ == "__main__":
    main()
