"""End-to-end tracing: well-formed span trees for the paper's two queries
under both kernels, cross-process links, critical-path analysis, and the
guarantee that tracing never changes what a query computes."""

import warnings

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    AsyncioKernel,
    QueryEngine,
    SimKernel,
    TraceRecorder,
    WSMED,
    QueryOptions,
)
from repro.obs.validate import validate_spans
from repro.render import render_critical_path, render_report, render_summary

SCALE = 0.002  # one model second = 2 wall milliseconds


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _assert_well_formed(result, *, expect_children: bool) -> None:
    store = result.spans
    assert store is not None and len(store) > 0
    assert validate_spans(store) == []
    categories = {span.category for span in store}
    assert {"compile", "query", "ws", "queue", "server"} <= categories
    if expect_children:
        assert "invoke" in categories and "call" in categories
    # One ws span per recorded web-service call.
    assert len(store.by_category("ws")) == result.total_calls


def _assert_cross_process_links_resolve(store) -> None:
    """Child call spans parent under operator spans of *other* processes."""
    crossing = [
        span
        for span in store
        if span.parent != -1
        and not span.instant
        and store.get(span.parent).process != span.process
        and span.category == "call"
    ]
    assert crossing, "expected shipped work to link back to its sender"
    for span in crossing:
        assert store.get(span.parent).category == "invoke"


# -- Fig 1 (QUERY1) -----------------------------------------------------------


def test_query1_traced_under_sim_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], obs=TraceRecorder()),
    )
    assert len(result.rows) == 360
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)


def test_query1_traced_under_asyncio_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[5, 4],
            kernel=AsyncioKernel(time_scale=SCALE),
            obs=TraceRecorder(),
        ),
    )
    assert len(result.rows) == 360
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)


# -- Fig 3 (QUERY2) -----------------------------------------------------------


def test_query2_traced_under_sim_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(mode="parallel", fanouts=[4, 3], obs=TraceRecorder()),
    )
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)
    report = result.critical_path()
    # The report must name a slowest web service and the tree level it
    # lives at (the acceptance criterion of the observability layer).
    assert report.slowest_service in {
        "GetAllStates",
        "GetInfoByState",
        "GetPlacesInside",
    }
    assert report.slowest_level is not None and report.slowest_level.level >= 0
    rendered = render_critical_path(report)
    assert "bottleneck:" in rendered and "level" in rendered


def test_query2_traced_under_asyncio_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(
            mode="parallel",
            fanouts=[4, 3],
            kernel=AsyncioKernel(time_scale=SCALE / 4),
            obs=TraceRecorder(),
        ),
    )
    _assert_well_formed(result, expect_children=True)


def test_adaptive_run_records_adaptation_instants(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="adaptive", obs=TraceRecorder()),
    )
    _assert_well_formed(result, expect_children=True)
    adapt = [span.name for span in result.spans.by_category("adapt")]
    assert "init_stage" in adapt
    assert "cycle" in adapt


def test_central_mode_traces_without_child_processes(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="central", obs=TraceRecorder()),
    )
    _assert_well_formed(result, expect_children=False)


# -- tracing must not change the computation ---------------------------------


def test_tracing_does_not_change_the_execution(wsmed) -> None:
    plain = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4]))
    traced = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4], obs=TraceRecorder()),
    )
    assert traced.rows == plain.rows
    assert traced.elapsed == plain.elapsed
    assert traced.total_calls == plain.total_calls
    assert traced.message_stats == plain.message_stats
    assert traced.tree == plain.tree
    assert traced.fault_stats == plain.fault_stats
    assert plain.spans is None and len(traced.spans) > 0


def test_untraced_result_has_no_spans(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
    assert result.spans is None
    assert len(result.critical_path().path) == 0


# -- the resident engine ------------------------------------------------------


def test_engine_traces_warm_and_cold_queries(wsmed) -> None:
    engine = QueryEngine(wsmed)
    try:
        cold = engine.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4], obs=TraceRecorder()),
        )
        warm = engine.sql(
            QUERY1_SQL,
            options=QueryOptions(mode="parallel", fanouts=[5, 4], obs=TraceRecorder()),
        )
    finally:
        engine.close()
    for result in (cold, warm):
        assert validate_spans(result.spans) == []
        assert len(result.spans.by_category("ws")) == result.total_calls
    # Compile spans only on the cold (plan-cache miss) run.
    assert cold.spans.by_category("compile")
    assert not warm.spans.by_category("compile")


# -- the redesigned stats API -------------------------------------------------


def test_report_rejects_unknown_sections(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
    with pytest.raises(ValueError, match="unknown report section"):
        render_report(result, sections="nonsense")


def test_summary_emits_no_deprecation_warnings(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(mode="parallel", fanouts=[5, 4]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        render_summary(result)
        render_report(result)


# -- concurrent traced queries ---------------------------------------------------------


def _child_processes(store) -> set[str]:
    return {span.process for span in store.find("install")}


@pytest.mark.parametrize(
    "make_kernel",
    [lambda: None, lambda: AsyncioKernel(resident=True, time_scale=SCALE)],
    ids=["sim", "asyncio"],
)
def test_concurrent_traced_queries_keep_disjoint_span_stores(wsmed, make_kernel) -> None:
    """Tracing is bound to the query, not the kernel: two traced queries
    running at once each get exactly their own spans."""
    kernel = make_kernel()
    engine = QueryEngine(wsmed) if kernel is None else QueryEngine(wsmed, kernel=kernel)
    try:
        first, second = engine.sql_many(
            [(QUERY1_SQL, {"obs": TraceRecorder()}), (QUERY1_SQL, {"obs": TraceRecorder()})],
            options=QueryOptions(mode="parallel", fanouts=[5, 4]),
        )
    finally:
        engine.close()
    assert engine.stats().peak_concurrency == 2
    for result in (first, second):
        assert validate_spans(result.spans) == []
        assert not result.spans.by_category("kernel")
        assert len(result.spans.by_category("ws")) == result.total_calls == 311
        assert len(_child_processes(result.spans)) == 25
    assert _child_processes(first.spans).isdisjoint(_child_processes(second.spans))
