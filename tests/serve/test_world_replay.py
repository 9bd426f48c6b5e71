"""Every query kind of the chain world, over ``POST /sql``, row for row.

A real-time (asyncio-kernel) engine behind the HTTP front end answers a
chain, a join, an aggregate, an OR and a LIMIT query over a world with
latency skew and a flaky operation (healed by ``retries``); each bag is
diffed against :func:`benchmarks.worlds.evaluate`'s reference answer.
"""

import http.client
import json
import threading
from collections import Counter

import pytest

from benchmarks.worlds import WorldSpec, build_world
from repro import AsyncioKernel, QueryEngine
from repro.serve import QueryServer

WORLD = build_world(
    WorldSpec(seed=11, roots=4, fanout=2, skew=0.5, flaky_ops=1, flaky_tries=1)
)
LIMIT = 5
PARALLEL = {"mode": "parallel", "fanouts": [2, 2]}

QUERIES = {
    "chain": (WORLD.chain_sql(0), PARALLEL, WORLD.reference_chain(0)),
    "join": (WORLD.join_sql(0, 1), {"mode": "central"}, WORLD.reference_join(0, 1)),
    "aggregate": (
        WORLD.aggregate_sql(1), {"mode": "adaptive"}, WORLD.reference_aggregate(1)
    ),
    "or": (WORLD.or_sql(0), {"mode": "central"}, WORLD.reference_or(0)),
    "limit": (WORLD.chain_sql(1, limit=LIMIT), PARALLEL, WORLD.reference_chain(1)),
}


@pytest.fixture(scope="module")
def port():
    kernel = AsyncioKernel(resident=True)
    engine = QueryEngine(WORLD.build(), kernel=kernel)
    server = QueryServer(engine, port=0)
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.run()

        kernel.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    yield server.port
    server.stop()
    thread.join(10)
    assert not thread.is_alive()
    engine.close()
    kernel.shutdown()


def post_sql(port: int, body: dict) -> list[tuple]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request("POST", "/sql", body=json.dumps(body))
    response = connection.getresponse()
    payload = response.read().decode("utf-8")
    connection.close()
    assert response.status == 200, payload
    lines = [json.loads(line) for line in payload.strip().split("\n")]
    assert "error" not in lines[-1], lines[-1]
    return [tuple(row) for row in lines[1:-1]]


@pytest.mark.parametrize("kind", QUERIES)
def test_http_rows_match_the_reference(port, kind) -> None:
    sql, options, reference = QUERIES[kind]
    rows = Counter(post_sql(port, {"sql": sql, "options": {**options, "retries": 1}}))
    if kind == "limit":
        assert sum(rows.values()) == min(LIMIT, len(reference))
        assert not rows - Counter(reference)
    else:
        assert rows == Counter(reference)
