"""Web-service call memoization on a skewed-key workload.

The paper's queries have mostly distinct call keys, so the cache is off by
default and changes nothing there.  This bench runs the workload the cache
is *for*: a parameter stream where a few hot keys repeat many times (the
shape of real dependent joins over foreign-key-like attributes).  Measured
claims:

* memoization cuts broker calls by well over 25% and shortens the
  makespan, in both central and parallel mode, and
* ``hash_affinity`` dispatch routes repeated keys to the same child, so
  the per-process caches see a far higher hit rate than under
  first-finished placement (children are separate processes — there is no
  shared cache to fall back on).
"""

from __future__ import annotations

from repro import CacheConfig, ProcessCosts, QueryOptions, WSMED
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType

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


def _sweep():
    ff = _system("first_finished")
    affinity = _system("hash_affinity")
    cache = CacheConfig(enabled=True)
    return {
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


def _report(results) -> None:
    print()
    print("Call cache on a skewed stream (392 tuples, 40 distinct keys):")
    for label, result in results.items():
        hit_rate = (
            f"{result.cache_stats.hit_rate:5.0%} hit rate"
            if result.cache_stats
            else "   cache off"
        )
        print(
            f"  {label:21s}: {result.elapsed:7.1f} s, "
            f"{result.total_calls:3d} calls, {hit_rate}"
        )


def _emit_json(results) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json(
        "call_cache",
        {
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
        },
    )


def test_call_cache_skewed_keys(benchmark) -> None:
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(results)
    _emit_json(results)

    baseline = results["central off"].as_bag()
    assert all(result.as_bag() == baseline for result in results.values())

    # Memoization removes >= 25% of broker calls and shortens the makespan.
    for off, on in (
        ("central off", "central on"),
        ("parallel ff off", "parallel ff on"),
        ("parallel ff off", "parallel affinity on"),
    ):
        assert results[on].total_calls <= 0.75 * results[off].total_calls
        assert results[on].elapsed < results[off].elapsed

    # Affinity routing concentrates repeats on the owning child's cache.
    assert (
        results["parallel affinity on"].cache_stats.hit_rate
        > results["parallel ff on"].cache_stats.hit_rate
    )
    assert (
        results["parallel affinity on"].total_calls
        < results["parallel ff on"].total_calls
    )


def main() -> None:
    results = _sweep()
    _report(results)
    _emit_json(results)


if __name__ == "__main__":
    main()
