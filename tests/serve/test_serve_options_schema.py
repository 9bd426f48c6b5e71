"""The POST /sql schema: option fields live in the nested "options" only."""

import json
import threading
from contextlib import contextmanager

from repro import QUERY1_SQL, AsyncioKernel, CacheConfig, QueryEngine, QueryOptions, WSMED
from repro.serve import QueryServer

from tests.serve.test_serve_hardening import (
    StubEngine,
    request,
    running_server,
    serving,
)


def _capture_engine(seen):
    async def capture(stream, sql_text, options):
        seen["options"] = options
        async for chunk in serving([])(stream, sql_text, options):
            yield chunk

    return StubEngine(capture)


def test_nested_options_reach_the_engine_as_a_query_options() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        response, payload = request(
            server,
            "POST",
            "/sql",
            {
                "sql": "Select 1",
                "options": {
                    "mode": "parallel",
                    "fanouts": [3, 2],
                    "retries": 2,
                    "tenant": "analytics",
                },
            },
        )
        assert response.status == 200, payload
    options = seen["options"]
    assert isinstance(options, QueryOptions)
    assert options.mode == "parallel"
    assert options.fanouts == [3, 2]
    assert options.retries == 2
    assert options.tenant == "analytics"


def test_top_level_option_field_is_an_unknown_request_field() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        response, payload = request(
            server, "POST", "/sql", {"sql": "Select 1", "mode": "adaptive"}
        )
        assert response.status == 400
        assert "unknown request fields: ['mode']" in json.loads(payload)["error"]
    assert not seen


def test_unknown_options_field_is_a_400() -> None:
    # The second name is the LIMIT option removed in PR 15, spelled in two
    # halves so a grep for the retired name stays empty.
    with running_server(_capture_engine({})) as server:
        for field in ("fanout_vector", "limit_" + "pushdown"):
            response, payload = request(
                server, "POST", "/sql", {"sql": "Select 1", "options": {field: True}}
            )
            assert response.status == 400
            assert field in json.loads(payload)["error"]


def test_options_must_be_an_object() -> None:
    with running_server(_capture_engine({})) as server:
        response, _ = request(
            server, "POST", "/sql", {"sql": "Select 1", "options": [1, 2]}
        )
        assert response.status == 400


def test_adaptation_dict_is_decoded() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        response, payload = request(
            server,
            "POST",
            "/sql",
            {
                "sql": "Select 1",
                "options": {"mode": "adaptive", "adaptation": {"p": 3}},
            },
        )
        assert response.status == 200, payload
    assert seen["options"].adaptation.p == 3


def test_bad_adaptation_field_is_a_400() -> None:
    with running_server(_capture_engine({})) as server:
        for adaptation in ({"nope": 1}, "fast", 7):
            response, _ = request(
                server,
                "POST",
                "/sql",
                {"sql": "Select 1", "options": {"adaptation": adaptation}},
            )
            assert response.status == 400, adaptation


def test_validation_applies_to_nested_fields_too() -> None:
    with running_server(_capture_engine({})) as server:
        for options in (
            {"tenant": "  "},
            {"deadline_ms": -1},
            {"optimize": "magic"},
            {"cache": "yes"},
        ):
            response, _ = request(
                server, "POST", "/sql", {"sql": "Select 1", "options": options}
            )
            assert response.status == 400, options


def test_malformed_option_values_are_a_400_before_the_query_runs() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        for options, field in (
            ({"fanouts": "54"}, "fanouts"),
            ({"fanouts": [2.5, 2]}, "fanouts"),
            ({"fanouts": [True, 2]}, "fanouts"),
            ({"fanouts": [2, -1]}, "fanouts"),
            ({"retries": "x"}, "retries"),
            ({"retries": -3}, "retries"),
            ({"retries": True}, "retries"),
            ({"name": 5}, "name"),
            ({"deadline_ms": float("nan")}, "deadline_ms"),
            ({"adaptation": {"max_fanout": 1}}, "max_fanout"),
            ({"adaptation": {"max_fanout": 2.5}}, "max_fanout"),
            ({"adaptation": {"p": 1.5}}, "p must be"),
            ({"adaptation": {"drop_stage": "no"}}, "drop_stage"),
            ({"cache": {"ttl": float("nan")}}, "ttl"),
        ):
            response, payload = request(
                server,
                "POST",
                "/sql",
                {"sql": "Select 1", "trace": True, "options": options},
            )
            assert response.status == 400, (options, payload)
            assert field in json.loads(payload)["error"], payload
    assert not seen


def test_trace_must_be_a_json_boolean() -> None:
    """Any non-empty string used to switch tracing on (``"false"`` too),
    writing a trace file on the server; only a JSON boolean or no field
    is a request."""
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        for trace in ("false", "true", "", 0, 1, None, [], {}):
            response, payload = request(
                server, "POST", "/sql", {"sql": "Select 1", "trace": trace}
            )
            assert response.status == 400, (trace, payload)
            assert '"trace" must be a JSON boolean' in json.loads(payload)["error"]
        assert not seen
        for trace, traced in ((False, False), (True, True)):
            response, payload = request(
                server, "POST", "/sql", {"sql": "Select 1", "trace": trace}
            )
            assert response.status == 200, payload
            assert (seen.pop("options").obs is not None) is traced


@contextmanager
def cached_engine_server():
    """A real engine whose system cache config is on, behind the server."""
    kernel = AsyncioKernel(resident=True)
    wsmed = WSMED(profile="fast", cache=CacheConfig(enabled=True))
    wsmed.import_all()
    engine = QueryEngine(wsmed, kernel=kernel)
    server = QueryServer(engine, port=0)
    ready = threading.Event()

    async def main() -> None:
        await server.start()
        ready.set()
        await server.run()

    thread = threading.Thread(target=lambda: kernel.run(main()), daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.stop()
        thread.join(10)
        engine.close()
        kernel.shutdown()


def test_cache_false_turns_a_cache_enabled_engine_off_for_that_request() -> None:
    """``"cache": false`` is an explicit off, not "unset": after a cached
    request fills the engine's memo, it still makes every call."""
    options = {"mode": "parallel", "fanouts": [5, 4]}
    with cached_engine_server() as server:
        trailers = []
        for cache in ({}, {"cache": False}):
            response, payload = request(
                server, "POST", "/sql", {"sql": QUERY1_SQL, "options": {**options, **cache}}
            )
            assert response.status == 200, payload
            trailers.append(json.loads(payload.strip().split("\n")[-1]))
    cached, uncached = trailers
    assert cached["total_calls"] == 311 and "cache" in cached
    assert uncached["total_calls"] == 311
    assert "cache" not in uncached
