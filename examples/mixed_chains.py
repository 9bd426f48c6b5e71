"""Mixing dependent and independent web service calls (paper Sec. VII).

The paper's future work asks to "generalize the strategy for queries
mixing both dependent and independent web service calls, as well [as]
bushy trees".  This library implements that: independent dependent-call
chains become separate branches of a bushy plan, each parallelized with
its own process tree, evaluated concurrently and combined with a hash
equi-join in the coordinator.

The query below runs two independent chains —

  chain A: GetAllStates -> GetInfoByState   (zip strings per state)
  chain B: GetAllStates -> GetPlacesWithin  (Atlanta neighbourhoods)

— and joins them on the state, so states are annotated with both facts.
"""

from repro import QueryOptions, WSMED

MIXED_SQL = """
SELECT gs1.State, gp.ToCity, gi.GetInfoByStateResult
FROM   GetAllStates gs1, GetInfoByState gi,
       GetAllStates gs2, GetPlacesWithin gp
WHERE  gi.USState = gs1.State
  AND  gp.state = gs2.State AND gp.place = 'Atlanta'
  AND  gp.distance = 15.0 AND gp.placeTypeToFind = 'City'
  AND  gs1.State = gs2.State
"""


def main() -> None:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()

    print("=== bushy plan (join of two independent chains) ===")
    explanation = wsmed.explain(
        MIXED_SQL,
        options=QueryOptions(mode="adaptive", name="Mixed"),
    )
    plan_section = explanation.split("-- plan --")[1].split("-- estimate --")[0]
    print(plan_section)

    central = wsmed.sql(MIXED_SQL, options=QueryOptions(mode="central", name="Mixed"))
    # One fanout per parallelizable section, in plan order: chain A ships
    # GetInfoByState's plan function, chain B ships GetPlacesWithin's.
    parallel = wsmed.sql(
        MIXED_SQL,
        options=QueryOptions(mode="parallel", fanouts=[3, 3], name="Mixed"),
    )
    adaptive = wsmed.sql(MIXED_SQL, options=QueryOptions(mode="adaptive", name="Mixed"))

    print(f"rows: {len(central)} (one per Atlanta-area city, annotated with "
          f"the state's zip string)")
    print(f"  central  : {central.elapsed:7.2f} s — but the two chains already "
          "overlap in time (the join evaluates its inputs concurrently)")
    print(f"  parallel : {parallel.elapsed:7.2f} s with process trees in every branch")
    print(f"  adaptive : {adaptive.elapsed:7.2f} s — AFF_APPLYP needs no fanout "
          "vector even for bushy plans")

    assert central.as_bag() == parallel.as_bag() == adaptive.as_bag()

    sample = central.as_dicts()[0]
    zips = sample["GetInfoByStateResult"].split(",")
    print(f"\nexample row: {sample['ToCity']} ({sample['State']}), "
          f"{len(zips)} zip codes in state")


if __name__ == "__main__":
    main()
