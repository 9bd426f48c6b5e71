"""AFF_APPLYP in action: adaptive process trees (paper Sec. V.A).

Runs Query1 with the adaptive operator, prints the add/drop timeline each
non-leaf process decided locally, and compares the result to manual trees
— no fanout vector had to be chosen.
"""

from repro import QUERY1_SQL, AdaptationParams, WSMED, QueryOptions, TraceRecorder
from repro.render import render_summary


def main() -> None:
    wsmed = WSMED(profile="paper")
    wsmed.import_all()

    adaptive = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=2, threshold=0.25, drop_stage=False),
            name="Query1",
            obs=TraceRecorder(),  # records the decision instants read below
        ),
    )
    print("adaptive run:")
    print(render_summary(adaptive))
    print()

    print("adaptation decisions (cf. paper Figs 18-19):")
    for span in adaptive.spans.by_category("adapt"):
        if span.name != "cycle":
            fields = {"process": span.process, **span.attrs}
            details = ", ".join(f"{key}={value}" for key, value in sorted(fields.items()))
            print(f"  t={span.start:8.2f}  {span.name:<11} {details}")
    print()

    print("monitoring cycles of the coordinator (avg time per tuple):")
    for span in adaptive.spans.find("cycle"):
        if span.process == "q0":
            print(f"  t={span.start:8.2f}  children={span.attrs['children']}  "
                  f"t_i={span.attrs['time_per_tuple']:.3f} s/tuple")
    print()

    # How close did adaptation get to hand-tuned trees?
    print("comparison against manual FF_APPLYP trees:")
    for fanouts in ([2, 2], [5, 4], [7, 7]):
        manual = wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=fanouts),
        )
        marker = " <- paper's best" if fanouts == [5, 4] else ""
        print(f"  manual {{{fanouts[0]},{fanouts[1]}}}: {manual.elapsed:7.1f} s{marker}")
    print(f"  adaptive     : {adaptive.elapsed:7.1f} s "
          f"(avg fanouts {[round(f, 1) for f in adaptive.tree.average_fanouts()]})")


if __name__ == "__main__":
    main()
