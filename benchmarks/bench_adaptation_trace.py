"""Figs 18-20 — the adaptation dynamics of one AFF_APPLYP run.

The paper illustrates the operator's life cycle: the init stage builds a
binary tree (Fig 18), after the first monitoring cycle each non-leaf
process adds p children (Fig 19), and with the drop stage enabled a
process that observes a slowdown drops a child and its subtree (Fig 20).
This bench replays a drop-enabled run, traced, and prints the decision
timeline from its ``adapt`` instants.
"""

from repro import AdaptationParams, QueryOptions, TraceRecorder

from benchmarks import harness
from benchmarks.harness import QUERY1_SQL, wsmed

NAME = None
TRACE_KINDS = ("init_stage", "add_stage", "drop_stage", "adapt_stop")


def run(smoke: bool = False) -> dict:
    result = wsmed().sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=1, drop_stage=True, max_fanout=10),
            obs=TraceRecorder(),
        ),
    )
    decisions = [s for s in result.spans.by_category("adapt") if s.name in TRACE_KINDS]
    return {"rows": len(result), "decisions": decisions}


def report(payload: dict) -> None:
    print("Adaptation timeline (Figs 18-20)")
    for span in payload["decisions"]:
        fields = {"process": span.process, **span.attrs}
        details = ", ".join(f"{key}={value}" for key, value in sorted(fields.items()))
        print(f"  t={span.start:8.2f}  {span.name:<11} {details}")


def check(payload: dict) -> None:
    decisions = payload["decisions"]
    # Fig 18: every pool starts with an init stage building a binary tree.
    assert decisions[0].name == "init_stage"
    inits = [s for s in decisions if s.name == "init_stage"]
    assert all(s.attrs["children"] == 2 for s in inits)
    # Fig 19: add stages follow (p=1 -> one child per stage).
    adds = [s for s in decisions if s.name == "add_stage"]
    assert adds
    assert all(s.attrs["added"] == 1 for s in adds)
    # The coordinator's first add stage comes after its init stage.
    q0_init = next(s for s in inits if s.process == "q0")
    q0_adds = [s for s in adds if s.process == "q0"]
    assert not q0_adds or q0_adds[0].start >= q0_init.start
    # Fig 20 / stop: every adapting pool eventually drops or stops.
    assert any(s.name in ("drop_stage", "adapt_stop") for s in decisions)
    # The query still returns the right answer while adapting.
    assert payload["rows"] == 360


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
