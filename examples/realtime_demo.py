"""Real concurrent execution under asyncio.

Every other example runs on the simulated kernel (virtual time).  Here the
same operator code executes on :class:`AsyncioKernel`: web-service latency
becomes real (scaled) sleeps and the query processes become concurrently
scheduled asyncio tasks — the faithful Python equivalent of the paper's
parallel processes, since web-service calls are I/O waits where the GIL
does not matter.
"""

import time

from repro import QUERY1_SQL, AsyncioKernel, WSMED, QueryOptions

# One model second runs as five wall milliseconds: Query1's ~245 model-
# second central plan takes ~1.5 wall seconds; the parallel plan far less.
SCALE = 0.005


def main() -> None:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()

    runs = {}
    for label, kwargs in (
        ("central", {"mode": "central"}),
        ("parallel {5,4}", {"mode": "parallel", "fanouts": [5, 4]}),
        ("adaptive", {"mode": "adaptive"}),
    ):
        started = time.monotonic()
        result = wsmed.sql(
            QUERY1_SQL,
            options=QueryOptions(
                kernel=AsyncioKernel(time_scale=SCALE),
                name="Query1",
                **kwargs,
            ),
        )
        wall = time.monotonic() - started
        runs[label] = (result, wall)
        print(f"{label:<16} rows={len(result):>4}  model={result.elapsed:7.2f} s  "
              f"wall={wall:6.2f} s  calls={result.total_calls}")

    central_rows = runs["central"][0].as_bag()
    assert all(result.as_bag() == central_rows for result, _ in runs.values())
    central_wall = runs["central"][1]
    parallel_wall = runs["parallel {5,4}"][1]
    print()
    print(f"wall-clock speed-up of the parallel plan: "
          f"{central_wall / parallel_wall:.1f}x — real concurrency, not simulation")


if __name__ == "__main__":
    main()
