"""Web-service call memoization on a skewed-key workload.

The paper's queries have mostly distinct call keys, so the cache is off by
default and changes nothing there.  This bench runs the workload the cache
is *for*: a parameter stream where a few hot keys repeat many times (the
shape of real dependent joins over foreign-key-like attributes).  Measured
claims:

* memoization cuts broker calls by well over 25% and shortens the
  makespan, in both central and parallel mode, and
* every cached run makes exactly one broker call per distinct key: the
  query's one memo answers a repeat in whichever child it lands, so the
  dispatch policy (``first_finished`` or ``hash_affinity``) does not
  change the call count.
"""

from __future__ import annotations

from repro import CacheConfig, ProcessCosts, QueryOptions, WSMED
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType

from benchmarks import harness

NAME = "call_cache"

SKEW_SQL = """
Select gp.ToPlace, gp.ToState
From   skewed_zips sz, GetPlacesInside gp
Where  gp.zip = sz.zip
"""

HOT_KEYS = 8  # repeated 25x each
COLD_KEYS = 32  # repeated 6x each
FANOUTS = [6]


def _skewed_stream(zips: list[str]) -> list[tuple[str]]:
    """392 parameter tuples over 40 distinct keys, hot keys interleaved."""
    counts = {zips[i]: 25 if i < HOT_KEYS else 6 for i in range(HOT_KEYS + COLD_KEYS)}
    stream: list[tuple[str]] = []
    while counts:
        for code in list(counts):
            stream.append((code,))
            counts[code] -= 1
            if not counts[code]:
                del counts[code]
    return stream


def _system(dispatch: str) -> WSMED:
    system = WSMED(profile="paper", process_costs=ProcessCosts(dispatch=dispatch))
    system.import_all()
    zips = system.registry.geodata.zipcodes_of("Colorado")[: HOT_KEYS + COLD_KEYS]
    stream = _skewed_stream(zips)
    system.register_helping_function(
        helping_function(
            "skewed_zips",
            [],
            TupleType((("zip", CHARSTRING),)),
            lambda: list(stream),
            documentation="Skewed parameter stream: 8 hot + 32 cold zip codes.",
        )
    )
    return system


def run(smoke: bool = False) -> dict:
    ff = _system("first_finished")
    affinity = _system("hash_affinity")
    cache = CacheConfig(enabled=True)
    results = {
        "central off": ff.sql(SKEW_SQL),
        "central on": ff.sql(SKEW_SQL, options=QueryOptions(cache=cache)),
        "parallel ff off": ff.sql(
            SKEW_SQL,
            options=QueryOptions(mode="parallel", fanouts=FANOUTS),
        ),
        "parallel ff on": ff.sql(
            SKEW_SQL,
            options=QueryOptions(mode="parallel", fanouts=FANOUTS, cache=cache),
        ),
        "parallel affinity on": affinity.sql(
            SKEW_SQL,
            options=QueryOptions(mode="parallel", fanouts=FANOUTS, cache=cache),
        ),
    }
    return {
        "workload": {
            "sql": "GetPlacesInside per zip (skewed keys)",
            "tuples": 392,
            "distinct_keys": HOT_KEYS + COLD_KEYS,
            "fanouts": FANOUTS,
        },
        "runs": [
            {
                "label": label,
                "elapsed": result.elapsed,
                "total_calls": result.total_calls,
                "hit_rate": (
                    result.cache_stats.hit_rate if result.cache_stats else None
                ),
            }
            for label, result in results.items()
        ],
        "_bags": [result.as_bag() for result in results.values()],
    }


def report(payload: dict) -> None:
    print("Call cache on a skewed stream (392 tuples, 40 distinct keys):")
    for run in payload["runs"]:
        hit_rate = (
            f"{run['hit_rate']:5.0%} hit rate"
            if run["hit_rate"] is not None
            else "   cache off"
        )
        print(
            f"  {run['label']:21s}: {run['elapsed']:7.1f} s, "
            f"{run['total_calls']:3d} calls, {hit_rate}"
        )


def check(payload: dict) -> None:
    assert all(bag == payload["_bags"][0] for bag in payload["_bags"])
    runs = {run["label"]: run for run in payload["runs"]}
    # Memoization removes >= 25% of broker calls and shortens the makespan.
    for off, on in (
        ("central off", "central on"),
        ("parallel ff off", "parallel ff on"),
        ("parallel ff off", "parallel affinity on"),
    ):
        assert runs[on]["total_calls"] <= 0.75 * runs[off]["total_calls"]
        assert runs[on]["elapsed"] < runs[off]["elapsed"]

    # One memo per query: each distinct key costs exactly one call.
    distinct = payload["workload"]["distinct_keys"]
    for run in payload["runs"]:
        if run["hit_rate"] is not None:
            assert run["total_calls"] == distinct, run


test_bench, main = harness.entry_points(__name__)

if __name__ == "__main__":
    main()
