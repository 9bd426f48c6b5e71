"""The process-tree, utilization and gantt views read a query's spans.

Cold one-shot views are pinned as golden strings (``golden_views.json``,
rendered from the event log the views were read from before they moved
to spans), and the span-derived tree is checked against the ``spawn``
instants.  A resident engine's warm queries spawn nothing and see their
children exit only at ``close()``; their views must still show the tree
the query ran on, over the query's own interval.
"""

import json
from pathlib import Path

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, QueryEngine, QueryOptions, TraceRecorder, WSMED
from repro.render import (
    build_process_tree,
    process_utilization,
    render_gantt,
    render_process_tree,
    render_utilization,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_views.json").read_text())
COLD = {
    "query1_fanouts_5_4": (QUERY1_SQL, QueryOptions(mode="parallel", fanouts=[5, 4])),
    "query1_adaptive": (QUERY1_SQL, QueryOptions(mode="adaptive")),
    "query2_fanouts_4_3": (QUERY2_SQL, QueryOptions(mode="parallel", fanouts=[4, 3])),
}
Q1_54 = COLD["query1_fanouts_5_4"][1]


def fresh_wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


@pytest.fixture(scope="module")
def cold_results() -> dict:
    return {
        name: fresh_wsmed().sql(sql, options=options.replace(obs=TraceRecorder()))
        for name, (sql, options) in COLD.items()
    }


@pytest.fixture(scope="module")
def engine_results():
    """A cold and a warm traced Query1 {5,4} on one resident engine, read
    before the engine closes."""
    engine = QueryEngine(fresh_wsmed())
    try:
        cold = engine.sql(QUERY1_SQL, options=Q1_54.replace(obs=TraceRecorder()))
        warm = engine.sql(QUERY1_SQL, options=Q1_54.replace(obs=TraceRecorder()))
        yield cold, warm
    finally:
        engine.close()


def query_span(result):
    (span,) = result.spans.by_category("query")
    return span


def count_processes(node) -> int:
    return 1 + sum(count_processes(child) for child in node.children)


def edges(node) -> set:
    return {
        (node.name, child.name, child.plan_function) for child in node.children
    }.union(*(edges(child) for child in node.children))


@pytest.mark.parametrize("case", COLD)
def test_cold_views_reproduce_the_golden_strings(cold_results, case) -> None:
    result = cold_results[case]
    assert render_process_tree(result.spans) == GOLDEN[case]["process_tree"]
    assert render_utilization(result.spans) == GOLDEN[case]["utilization"]
    assert render_gantt(result.spans, width=60) == GOLDEN[case]["gantt"]


@pytest.mark.parametrize("case", COLD)
def test_span_derived_parents_match_the_spawn_instants(cold_results, case) -> None:
    spans = cold_results[case].spans
    spawned = {
        (span.process, span.attrs["child"], span.attrs["plan_function"])
        for span in spans.find("spawn")
    }
    assert len(spawned) == cold_results[case].tree.processes_spawned
    assert edges(build_process_tree(spans)) == spawned


def test_warm_engine_query_renders_its_whole_tree(engine_results) -> None:
    _, warm = engine_results
    assert not warm.spans.find("spawn")  # the tree came warm from the pool registry
    lines = render_process_tree(warm.spans).splitlines()
    assert lines[0] == "q0 (coordinator)"
    assert len(lines) == 1 + 25
    root = build_process_tree(warm.spans)
    assert sum(child.calls for child in root.children) == 50
    assert sum(grandchild.calls for child in root.children for grandchild in child.children) == 260


def test_cold_engine_query_counts_calls_before_close(engine_results) -> None:
    cold, _ = engine_results
    assert not cold.spans.find("process_exit")  # its children exit at close()
    text = render_process_tree(cold.spans)
    assert "calls=0" not in text
    root = build_process_tree(cold.spans)
    assert count_processes(root) == 26
    assert sum(child.calls for child in root.children) == 50


def test_warm_engine_utilization_covers_the_tree_over_the_query(engine_results) -> None:
    _, warm = engine_results
    report = process_utilization(warm.spans)
    assert len(report) == 1 + 25
    query = query_span(warm)
    assert report["q0"].lifetime == pytest.approx(query.duration)
    assert all(entry.lifetime <= query.duration + 1e-9 for entry in report.values())
    assert sum(entry.calls for entry in report.values()) == warm.total_calls == 311
    assert len(render_utilization(warm.spans, top=40).splitlines()) == 1 + 26


def test_warm_engine_gantt_spans_the_query_not_the_engine(engine_results) -> None:
    _, warm = engine_results
    query = query_span(warm)
    assert query.start > 0  # the engine's clock kept running across queries
    header, *rows = render_gantt(warm.spans, width=60).splitlines()
    assert header.endswith(f" {query.duration:.1f}s")
    # The first broker call (the coordinator's GetAllStates) starts the query.
    q0 = next(row for row in rows if row.split("|")[0].strip() == "q0")
    assert q0.split("|")[1].startswith("#")
