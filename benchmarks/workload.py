"""Mixed-workload driver: replay a diverse query trace, check every row.

Generates a deterministic trace of ``--queries`` queries over the
synthetic chain world of :mod:`benchmarks.worlds`, mixing the five
workload classes this repo's dialect supports:

* **chain** — the classic dependent-call expansion (central, parallel,
  or adaptive),
* **join** — two chains joined on the shared ``tag`` column,
* **aggregate** — GROUP BY over a chain's leaves,
* **or** — a disjunctive tag filter (union + distinct),
* **limit** — a chain under ``LIMIT k``.

Every query's row bag is diffed against the naive in-memory reference
evaluator (the ``reference_*`` methods on :class:`benchmarks.worlds.World`),
so the bench doubles as an end-to-end equivalence check.  A dedicated
section measures LIMIT: the limited query must make *strictly
fewer* web-service calls than the limit-less run while returning exactly
its first ``k`` rows.

``--serve`` additionally replays the same trace over HTTP against an
in-process ``repro serve`` front end (real-time asyncio kernel) using the
versioned nested ``"options"`` request schema, and diffs those row bags
against the simulated-kernel results.

Usage::

    python -m benchmarks.workload [--queries 20] [--serve] [--smoke]
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import threading

from benchmarks.worlds import World, WorldSpec, build_world
from repro import QueryEngine, QueryOptions

TRACE_SEED = 2009
DEFAULT_QUERIES = 20
LIMIT_K = 5

#: (class, weight, option templates to rotate through)
_CLASSES = (
    ("chain", 3, ({"mode": "central"}, {"mode": "parallel"}, {"mode": "adaptive"})),
    ("join", 2, ({"mode": "central"},)),
    ("aggregate", 2, ({"mode": "central"}, {"mode": "adaptive"})),
    ("or", 2, ({"mode": "central"},)),
    ("limit", 2, ({"mode": "parallel"}, {"mode": "adaptive"})),
)


def default_spec() -> WorldSpec:
    return WorldSpec(
        seed=11,
        chains=2,
        depth=2,
        roots=4,
        fanout=2,
        tags=4,
        skew=0.5,
        flaky_ops=1,
        flaky_tries=1,
    )


def build_trace(world: World, count: int, seed: int = TRACE_SEED) -> list[dict]:
    """``count`` queries with per-query options and reference row bags."""
    rng = random.Random(seed)
    names = [name for name, weight, _ in _CLASSES for _ in range(weight)]
    templates = {name: options for name, _, options in _CLASSES}
    depth = world.spec.depth
    trace = []
    for index in range(count):
        kind = rng.choice(names)
        options = dict(rng.choice(templates[kind]))
        options["retries"] = 1  # heal the world's flaky operation
        if options["mode"] == "parallel":
            options["fanouts"] = [2] * depth
        chain = rng.randrange(world.spec.chains)
        if kind == "chain":
            sql = world.chain_sql(chain)
            reference = world.reference_chain(chain)
        elif kind == "join":
            left, right = 0, world.spec.chains - 1
            sql = world.join_sql(left, right)
            reference = world.reference_join(left, right)
        elif kind == "aggregate":
            sql = world.aggregate_sql(chain)
            reference = world.reference_aggregate(chain)
        elif kind == "or":
            sql = world.or_sql(chain)
            reference = world.reference_or(chain)
        else:  # limit
            sql = world.chain_sql(chain, limit=LIMIT_K)
            reference = world.reference_chain(chain)
        trace.append(
            {
                "index": index,
                "class": kind,
                "sql": sql,
                "options": options,
                "reference": reference,
            }
        )
    return trace


def _rows_ok(kind: str, rows: list[tuple], reference: list[tuple]) -> bool:
    """LIMIT rows are any k-prefix of an arrival order: check containment."""
    bag = sorted(tuple(row) for row in rows)
    if kind == "limit":
        expected = min(LIMIT_K, len(reference))
        return len(bag) == expected and not [r for r in bag if r not in reference]
    return bag == reference


def replay_engine(world: World, trace: list[dict]) -> tuple[dict, list]:
    """Run the trace on a resident engine over the simulated kernel."""
    engine = QueryEngine(world.build())
    results = []
    per_class: dict[str, dict] = {}
    mismatches = []
    try:
        for entry in trace:
            result = engine.sql(
                entry["sql"], options=QueryOptions(**entry["options"])
            )
            results.append(result)
            stats = per_class.setdefault(
                entry["class"], {"queries": 0, "model_s": 0.0, "calls": 0}
            )
            stats["queries"] += 1
            stats["model_s"] += result.elapsed
            stats["calls"] += result.total_calls
            if not _rows_ok(entry["class"], result.rows, entry["reference"]):
                mismatches.append(entry["index"])
    finally:
        engine.close()
    payload = {
        "queries": len(trace),
        "total_model_s": sum(r.elapsed for r in results),
        "total_calls": sum(r.total_calls for r in results),
        "per_class": per_class,
        "rows_ok": not mismatches,
        "mismatched_queries": mismatches,
    }
    return payload, results


def measure_limit(world: World) -> dict:
    """LIMIT k vs limit-less, same plan shape: fewer calls, same prefix."""
    spec = world.spec
    options = QueryOptions(mode="parallel", fanouts=[2] * spec.depth, retries=1)
    wsmed = world.build()
    full = wsmed.sql(world.chain_sql(0), options=options)
    limited = wsmed.sql(world.chain_sql(0, limit=LIMIT_K), options=options)
    return {
        "limit": LIMIT_K,
        "no_limit_calls": full.total_calls,
        "limit_calls": limited.total_calls,
        "saved_calls": full.total_calls - limited.total_calls,
        "no_limit_model_s": full.elapsed,
        "limit_model_s": limited.elapsed,
        "rows_prefix_ok": list(limited.rows) == list(full.rows)[:LIMIT_K],
    }


# -- HTTP replay over `repro serve` -----------------------------------------


def _post_sql(port: int, body: dict) -> list[tuple]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    connection.request("POST", "/sql", body=json.dumps(body))
    response = connection.getresponse()
    payload = response.read().decode("utf-8")
    connection.close()
    if response.status != 200:
        raise RuntimeError(f"POST /sql -> {response.status}: {payload}")
    lines = [json.loads(line) for line in payload.strip().split("\n")]
    trailer = lines[-1]
    if "error" in trailer:
        raise RuntimeError(f"query failed: {trailer['error']}")
    return [tuple(row) for row in lines[1:-1]]


def replay_serve(world: World, trace: list[dict]) -> dict:
    """The same trace, over HTTP, against a real-time engine."""
    from repro import AsyncioKernel
    from repro.serve import QueryServer

    kernel = AsyncioKernel(resident=True)
    engine = QueryEngine(world.build(), kernel=kernel)
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
    if not ready.wait(10):
        raise RuntimeError("repro serve front end did not start")
    mismatches = []
    try:
        for entry in trace:
            rows = _post_sql(
                server.port, {"sql": entry["sql"], "options": entry["options"]}
            )
            if not _rows_ok(entry["class"], rows, entry["reference"]):
                mismatches.append(entry["index"])
    finally:
        server.stop()
        thread.join(10)
        engine.close()
        kernel.shutdown()
    return {
        "queries": len(trace),
        "rows_ok": not mismatches,
        "mismatched_queries": mismatches,
    }


def run(queries: int = DEFAULT_QUERIES, serve: bool = False) -> dict:
    spec = default_spec()
    world = build_world(spec)
    trace = build_trace(world, queries)
    class_counts: dict[str, int] = {}
    for entry in trace:
        class_counts[entry["class"]] = class_counts.get(entry["class"], 0) + 1
    engine_payload, _ = replay_engine(world, trace)
    payload = {
        "workload": {
            "world": "benchmarks.worlds",
            "spec": {
                "seed": spec.seed,
                "chains": spec.chains,
                "depth": spec.depth,
                "roots": spec.roots,
                "fanout": spec.fanout,
                "skew": spec.skew,
                "flaky_ops": spec.flaky_ops,
            },
            "trace_seed": TRACE_SEED,
            "queries": queries,
            "class_counts": class_counts,
        },
        "engine": engine_payload,
        "limit": measure_limit(world),
    }
    if serve:
        payload["serve"] = replay_serve(world, trace)
    return payload


def _report(payload: dict) -> None:
    engine = payload["engine"]
    for kind, stats in sorted(engine["per_class"].items()):
        print(
            f"{kind:>9}: {stats['queries']:2d} queries, "
            f"{stats['model_s']:7.2f} model s, {stats['calls']:4d} calls"
        )
    print(
        f"engine replay: {engine['queries']} queries, "
        f"rows {'OK' if engine['rows_ok'] else 'MISMATCH'}"
    )
    limit = payload["limit"]
    print(
        f"limit: LIMIT {limit['limit']} -> {limit['limit_calls']} calls "
        f"vs {limit['no_limit_calls']} without LIMIT "
        f"({limit['saved_calls']} saved)"
    )
    if "serve" in payload:
        serve = payload["serve"]
        print(
            f"serve replay: {serve['queries']} queries, "
            f"rows {'OK' if serve['rows_ok'] else 'MISMATCH'}"
        )


def _emit_json(payload: dict) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json("workload", payload)


def _check(payload: dict) -> None:
    engine = payload["engine"]
    assert engine["rows_ok"], engine["mismatched_queries"]
    limit = payload["limit"]
    assert limit["limit_calls"] < limit["no_limit_calls"], limit
    assert limit["rows_prefix_ok"], limit
    if "serve" in payload:
        assert payload["serve"]["rows_ok"], payload["serve"]


def test_workload(benchmark) -> None:
    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(payload)
    _emit_json(payload)
    _check(payload)


def main(queries: int, serve: bool) -> None:
    payload = run(queries=queries, serve=serve)
    _report(payload)
    _emit_json(payload)
    _check(payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queries", type=int, default=DEFAULT_QUERIES, help="trace length"
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also replay the trace over HTTP against `repro serve`",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="short trace (CI smoke)"
    )
    arguments = parser.parse_args()
    main(
        queries=10 if arguments.smoke else arguments.queries,
        serve=arguments.serve,
    )
