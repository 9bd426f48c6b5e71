"""Subprocess body of the ``http_serve`` workload: a ``QueryServer`` over a
warm-configured engine on a real-time kernel.

Run by :mod:`benchmarks.e2e.workloads` as ``python -m
benchmarks.e2e.serve_launcher``.  Protocol: the first stdout line is ``{"port": N}``; each stdin
line is a command, answered with one ``ok`` line —

``profile_on``         start cProfile inside the event loop (traced pass),
``profile_off PATH``   stop it and dump the statistics to ``PATH`` —

and closing stdin stops the server, so the launcher can never outlive the
benchmark process that started it.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import sys
import threading

from repro import AsyncioKernel, QueryEngine
from repro.serve import QueryServer

from .workloads import warm_wsmed


def main() -> int:
    kernel = AsyncioKernel(resident=True, time_scale=1e-6)
    engine = QueryEngine(warm_wsmed(), kernel=kernel)
    server = QueryServer(engine, port=0)
    profiler = cProfile.Profile(builtins=False)

    def command(line: str) -> None:
        # Runs as an event-loop callback, so the profiler attaches to the
        # thread that executes the request handlers.
        name, _, argument = line.partition(" ")
        if name == "profile_on":
            profiler.enable()
        elif name == "profile_off":
            profiler.disable()
            profiler.dump_stats(argument)
        print("ok", flush=True)

    def read_commands(loop: asyncio.AbstractEventLoop) -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(command, line.strip())
        server.stop()

    async def serve() -> None:
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        threading.Thread(
            target=read_commands,
            args=(asyncio.get_running_loop(),),
            daemon=True,
        ).start()
        await server.run()

    try:
        kernel.run(serve())
    finally:
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
