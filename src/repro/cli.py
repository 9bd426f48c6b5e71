"""Command-line front end: one-shot queries, an interactive shell, and
the HTTP server.

One-shot::

    python -m repro --query "SELECT gs.Name FROM GetAllStates gs LIMIT 3"
    python -m repro --query "$SQL" --mode parallel --fanouts 5,4 --tree
    python -m repro --query "$SQL" --kernel process --workers 4

Server::

    python -m repro serve --port 8080 --kernel process --workers 4

Interactive::

    python -m repro
    wsmed> \\mode adaptive
    wsmed> SELECT gp.ToState, gp.zip FROM ... ;
    wsmed> \\tree

Meta commands: ``\\views``, ``\\owf NAME``, ``\\mode``, ``\\fanouts``,
``\\profile``, ``\\explain SQL;``, ``\\tree``, ``\\summary``, ``\\rows N``,
``\\stats [SECTION]``, ``\\help``, ``\\quit``.  Statistics live under one
``\\stats`` command (sections: calls, tree, cache, batch, faults,
critical_path, engine, share); ``\\cache``/``\\batch``/``\\faults`` take an
argument and only change settings.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from functools import partial
from typing import IO

from repro.cache import CacheConfig
from repro.engine import QueryEngine
from repro.obs import TraceRecorder
from repro.parallel.faults import FaultInjection
from repro.render import (
    REPORT_SECTIONS,
    render_engine_stats,
    render_gantt,
    render_process_tree,
    render_report,
    render_share_stats,
    render_summary,
    render_table,
    render_utilization,
    write_chrome_trace,
)
from repro.runtime.base import Kernel
from repro.util.errors import ReproError
from repro.wsmed.options import QueryOptions
from repro.wsmed.results import QueryResult
from repro.wsmed.system import WSMED

#: The view commands (``\tree``, ``\summary``, ``\util``, ``\gantt``,
#: ``\stats [SECTION]``) and the one-shot flags that print them: each is
#: one render function over the last query's result ...
RESULT_VIEWS = {
    "tree": lambda result: render_process_tree(result.spans),
    "summary": render_summary,
    "util": lambda result: render_utilization(result.spans),
    "gantt": lambda result: render_gantt(result.spans),
    "stats": render_report,
    **{
        f"stats {section}": partial(render_report, sections=section)
        for section in REPORT_SECTIONS
    },
}
#: ... or over the resident engine's stats (None without an engine).
ENGINE_VIEWS = {"stats engine": render_engine_stats, "stats share": render_share_stats}


def _parse_fanouts(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part != ""]
    except ValueError:
        raise ReproError(f"invalid fanout vector {text!r}; expected e.g. 5,4") from None


class Shell:
    """The interactive session state."""

    def __init__(
        self,
        wsmed: WSMED,
        out: IO[str],
        *,
        options: QueryOptions | None = None,
        engine: QueryEngine | None = None,
        trace_out: str | None = None,
    ) -> None:
        self.wsmed = wsmed
        self.out = out
        # Every per-query setting of the session; a ``\`` command
        # replaces one field.  (``kernel`` rides along for the engineless
        # --kernel asyncio/process path; an engine owns its own.)
        self.options = options if options is not None else QueryOptions()
        # With a resident engine the shell is *warm*: repeated queries
        # reuse compiled plans and child-process trees across statements
        # instead of cold-starting per query (see repro.engine).
        self.engine = engine
        self.max_rows = 20
        self.last_result: QueryResult | None = None
        # When set, every query's span tree is written to this path as a
        # Chrome trace-event file (open in Perfetto).
        self.trace_out = trace_out
        # Shell statements run traced, so \tree, \util, \gantt and
        # \stats critical_path always have the spans they
        # read; a one-shot query traces only when its flags need it.
        self.trace = True

    def write(self, text: str) -> None:
        print(text, file=self.out)

    def _set(self, **fields) -> None:
        self.options = self.options.replace(**fields)

    def set_batch(self, size: int) -> None:
        """``ProcessCosts.batch_size`` on top of the system's cost model,
        until ``\batch off``."""
        costs = self.options.process_costs or self.wsmed.process_costs
        self._set(process_costs=replace(costs, batch_size=size))

    # -- execution ------------------------------------------------------------

    def run_sql(self, sql: str) -> None:
        options = self.options
        if self.trace or self.trace_out is not None:
            options = options.replace(obs=TraceRecorder())
        runner = self.engine.sql if self.engine is not None else self.wsmed.sql
        result = runner(sql, options=options)
        self.last_result = result
        self.write(render_table(result, self.max_rows))
        if self.trace_out is not None:
            write_chrome_trace(result.spans, self.trace_out)
            self.write(f"trace written to {self.trace_out}")

    def explain(self, sql: str) -> None:
        self.write(self.wsmed.explain(sql, options=self.options))

    def show(self, view: str) -> str:
        """The text of one view (a key of ``RESULT_VIEWS`` or
        ``ENGINE_VIEWS``)."""
        if view in ENGINE_VIEWS:
            return ENGINE_VIEWS[view](None if self.engine is None else self.engine.stats())
        render = RESULT_VIEWS.get(view)
        if render is None:
            known = ", ".join(REPORT_SECTIONS + ("engine", "share"))
            raise ReproError(f"unknown stats section {view[6:]!r}; known sections: {known}")
        if self.last_result is None:
            raise ReproError("no query has been executed yet")
        return render(self.last_result)

    # -- meta commands -----------------------------------------------------------

    def meta(self, line: str) -> bool:
        """Handle a ``\\...`` command; returns False to exit the shell."""
        command, _, argument = line[1:].partition(" ")
        command = command.strip().lower()
        argument = argument.strip()
        if command in ("quit", "q", "exit"):
            return False
        if command == "help":
            self.write(HELP_TEXT)
        elif command == "views":
            self.write(self.wsmed.views())
        elif command == "owf":
            self.write(self.wsmed.owf_source(argument))
        elif command == "mode":
            if argument not in ("central", "parallel", "adaptive"):
                raise ReproError("mode must be central, parallel or adaptive")
            self._set(mode=argument)
            self.write(f"mode = {argument}")
        elif command == "fanouts":
            self._set(fanouts=_parse_fanouts(argument))
            self.write(f"fanouts = {self.options.fanouts}")
        elif command == "optimize":
            self._set(optimize=argument)
            self.write(f"optimize = {argument}")
        elif command == "retries":
            self._set(retries=int(argument))
            self.write(f"retries = {self.options.retries}")
        elif command == "stats":
            self.write(self.show(f"stats {argument.lower()}".rstrip()))
        elif command == "cache":
            self._cache_command(argument)
        elif command == "batch":
            self._batch_command(argument)
        elif command == "faults":
            self._faults_command(argument)
        elif command == "rows":
            rows = int(argument)
            if rows < 0:
                raise ReproError(f"rows must be >= 0, got {rows}")
            self.max_rows = rows
            self.write(f"rows = {self.max_rows}")
        elif command == "explain":
            self.explain(argument.rstrip(";"))
        elif command in RESULT_VIEWS:
            self.write(self.show(command))
        else:
            raise ReproError(f"unknown command \\{command}; try \\help")
        return True

    def _cache_command(self, argument: str) -> None:
        """``\\cache on [TTL] | off``: toggle memoization."""
        word, _, ttl_text = argument.partition(" ")
        word = word.strip().lower()
        if word == "on":
            ttl = float(ttl_text) if ttl_text.strip() else None
            self._set(cache=CacheConfig(enabled=True, ttl=ttl))
            suffix = f" (ttl {ttl:g} model s)" if ttl is not None else ""
            self.write(f"cache = on{suffix}")
        elif word == "off":
            # Explicit, so a sharing engine's memoize-by-default yields too.
            self._set(cache=CacheConfig(enabled=False))
            self.write("cache = off")
        else:
            raise ReproError(r"usage: \cache on [TTL] | off (counters: \stats cache)")

    def _batch_command(self, argument: str) -> None:
        """``\\batch N | off``: micro-batching."""
        word = argument.partition(" ")[0].lower()
        if word == "off":
            self._set(process_costs=None)
            self.write("batch = off (per-tuple protocol)")
        else:
            try:
                size = int(word)
            except ValueError:
                raise ReproError(r"usage: \batch N | off (counters: \stats batch)") from None
            self.set_batch(size)
            self.write(f"batch size = {size}")

    def _faults_command(self, argument: str) -> None:
        """``\\faults fail|retry|skip | inject P [C] | off``: fault policy."""
        word, _, rest = argument.partition(" ")
        word = word.strip().lower()
        if word in ("fail", "retry", "skip"):
            self._set(on_error=word)
            self.write(f"on_error = {word}")
        elif word == "inject":
            parts = rest.split()
            try:
                failure = float(parts[0]) if parts else 0.0
                crash = float(parts[1]) if len(parts) > 1 else 0.0
            except ValueError:
                raise ReproError(
                    r"usage: \faults inject FAIL_PROB [CRASH_PROB]"
                ) from None
            self._set(
                faults=FaultInjection(
                    call_failure_probability=failure, crash_probability=crash
                )
            )
            self.write(
                f"fault injection: call failure {failure:g}, crash {crash:g}"
            )
        elif word == "off":
            self._set(on_error="fail", faults=None)
            self.write("faults = off (policy fail, no injection)")
        else:
            raise ReproError(
                r"usage: \faults fail|retry|skip | inject P [C] | off "
                r"(counters: \stats faults)"
            )

    # -- the loop ------------------------------------------------------------------

    def repl(self, source: IO[str]) -> None:
        buffer: list[str] = []
        self.write("WSMED shell — SQL terminated by ';', \\help for commands")
        while True:
            prompt = "wsmed> " if not buffer else "  ...> "
            print(prompt, end="", file=self.out, flush=True)
            line = source.readline()
            if not line:
                break
            stripped = line.strip()
            if not stripped:
                continue
            if not buffer and stripped.startswith("\\"):
                try:
                    if not self.meta(stripped):
                        break
                except (ReproError, ValueError) as error:
                    self.write(f"error: {error}")
                continue
            buffer.append(stripped)
            if stripped.endswith(";"):
                sql = " ".join(buffer).rstrip(";")
                buffer = []
                try:
                    self.run_sql(sql)
                except ReproError as error:
                    self.write(f"error: {error}")


HELP_TEXT = """\
meta commands:
  \\views            list all generated views
  \\owf NAME         show the generated OWF source (paper Fig 2 style)
  \\mode M           central | parallel | adaptive
  \\fanouts 5,4      fanout vector for parallel mode
  \\optimize L       planner level: heuristic (seed) | cost (optimizer)
  \\retries N        retry retriable service faults N times per call
  \\stats            all statistics sections of the last execution
  \\stats SECTION    one section: calls | tree | cache | batch | faults
                    | critical_path | engine | share
  \\cache on [TTL]   memoize web-service calls (optional TTL, model s)
  \\cache off        disable the call cache
  \\batch N          coalesce N parameter/result tuples per message
  \\batch off        back to the per-tuple protocol
  \\faults P         failure policy: fail | retry | skip
  \\faults inject F [C]  inject per-call failures (prob F) / crashes (C)
  \\faults off       seed behavior: policy fail, no injection
  \\rows N           max rows displayed
  \\explain SQL;     show calculus, plan and cost estimate
  \\tree             process tree of the last execution
  \\summary          statistics of the last execution
  \\util             busiest processes of the last execution
  \\gantt            service-call timeline of the last execution
  \\quit             leave"""


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="WSMED: SQL over (simulated) data providing web services",
    )
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument(
        "--mode",
        default="central",
        choices=("central", "parallel", "adaptive"),
    )
    parser.add_argument("--fanouts", help="fanout vector for parallel mode, e.g. 5,4")
    parser.add_argument(
        "--optimize",
        default="heuristic",
        choices=("heuristic", "cost"),
        help="planner level: heuristic (the seed's query-order plan, "
        "default) or cost (bushy search + binding-pattern rewrites; see "
        "repro.algebra.optimizer)",
    )
    parser.add_argument(
        "--profile", default="paper", choices=("paper", "fast", "uncontended")
    )
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoize web-service calls per query process",
    )
    parser.add_argument(
        "--batch",
        metavar="N",
        help="micro-batch N tuples per message",
    )
    parser.add_argument(
        "--on-error",
        choices=("fail", "retry", "skip"),
        default="fail",
        help="pool policy for failed web-service calls (default: fail)",
    )
    parser.add_argument(
        "--engine",
        action="store_true",
        help="run queries on a resident engine (warm plans and process trees)",
    )
    parser.add_argument(
        "--share",
        action="store_true",
        help="share work across concurrent queries on the resident engine "
        "(memoized calls by default, shared pools); "
        "implies --engine",
    )
    parser.add_argument("--explain", action="store_true", help="explain, don't run")
    parser.add_argument("--tree", action="store_true", help="print the process tree")
    parser.add_argument("--summary", action="store_true", help="print statistics")
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the full statistics report after the query",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="trace the query and write a Chrome trace-event file "
        "(open in Perfetto: https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--kernel",
        default="sim",
        choices=("sim", "asyncio", "process"),
        help="execution kernel: sim (virtual time, the default), asyncio "
        "(real time), or process (child pools sharded across OS worker "
        "processes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="OS worker processes for --kernel process (default 4)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="serve SQL over HTTP against a resident query engine "
        "(POST /sql, GET /stats, GET /healthz; see repro.serve)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port (0 binds an ephemeral port; default 8080)",
    )
    parser.add_argument(
        "--kernel",
        default="asyncio",
        choices=("asyncio", "process"),
        help="execution kernel (the simulated kernel cannot host a real "
        "socket server); default asyncio",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="OS worker processes for --kernel process (default 4)",
    )
    parser.add_argument(
        "--profile", default="paper", choices=("paper", "fast", "uncontended")
    )
    parser.add_argument(
        "--share",
        action="store_true",
        help="share call results and pools across concurrent requests",
    )
    parser.add_argument(
        "--optimize",
        default="heuristic",
        choices=("heuristic", "cost"),
        help="default planner level for requests that don't set "
        '"optimize" (cost enables the cost-based optimizer with '
        "live-stats re-optimization)",
    )
    parser.add_argument(
        "--trace-dir",
        default="traces",
        metavar="DIR",
        help='where per-request Chrome traces land ("trace": true requests)',
    )
    parser.add_argument(
        "--admission",
        default="static",
        choices=("static", "adaptive"),
        help="admission policy: static (limit pinned at the engine's "
        "max concurrency, default) or adaptive (online capacity probing "
        "below it, AFF fanout caps); both queue tenants fairly and shed "
        "on deadlines (see repro.engine.admission)",
    )
    parser.add_argument(
        "--admission-threshold",
        type=float,
        default=1.5,
        metavar="X",
        help="p50 inflation vs the solo baseline that marks a concurrency "
        "level unsafe under --admission adaptive (default 1.5)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default deadline in model milliseconds for requests that "
        'carry no "deadline_ms" of their own (needs --admission '
        "adaptive); a query the measured service rate cannot finish in "
        "time is shed with HTTP 429 + Retry-After",
    )
    return parser


def _build_kernel(name: str, workers: int) -> Kernel | None:
    """``--kernel`` to kernel; ``None`` keeps the seed default (sim)."""
    if name == "process":
        from repro.runtime.multiprocess import ProcessKernel

        return ProcessKernel(workers=workers)
    if name == "asyncio":
        from repro.runtime.realtime import AsyncioKernel

        return AsyncioKernel(resident=True)
    return None


def serve_main(argv: list[str], out: IO[str]) -> int:
    """``python -m repro serve ...``: run the HTTP front end."""
    import signal

    from repro.serve import QueryServer

    parser = build_serve_parser()
    arguments = parser.parse_args(argv)
    if arguments.deadline_ms is not None and arguments.admission != "adaptive":
        parser.error("--deadline-ms needs --admission adaptive")
    kernel = _build_kernel(arguments.kernel, arguments.workers)
    wsmed = WSMED(profile=arguments.profile)
    wsmed.import_all()
    if arguments.admission == "adaptive":
        from repro.engine.admission import AdmissionConfig

        admission: str | AdmissionConfig = AdmissionConfig(
            threshold=arguments.admission_threshold,
            default_deadline_ms=arguments.deadline_ms,
        )
    else:
        admission = "static"
    with kernel:
        engine = QueryEngine(
            wsmed,
            kernel=kernel,
            share=arguments.share,
            admission=admission,
        )
        server = QueryServer(
            engine,
            host=arguments.host,
            port=arguments.port,
            trace_dir=arguments.trace_dir,
            default_optimize=arguments.optimize,
        )

        async def _serve() -> None:
            await server.start()
            print(
                f"serving on http://{server.host}:{server.port} "
                f"({arguments.kernel} kernel"
                + (
                    f", {arguments.workers} workers"
                    if arguments.kernel == "process"
                    else ""
                )
                + ") — Ctrl-C to stop",
                file=out,
                flush=True,
            )
            await server.run()

        # Graceful stop on SIGTERM/SIGINT (supervisors send TERM; a
        # shell-backgrounded server inherits SIGINT as ignored, so an
        # explicit handler is needed either way): the accept loop winds
        # down, then the engine and kernel tear down in order.
        def _request_stop(signum, frame) -> None:
            print("shutting down", file=out, flush=True)
            server.stop()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
        try:
            kernel.run(_serve())
        except KeyboardInterrupt:
            pass
        finally:
            engine.close()
    return 0


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        return serve_main(argv[1:], out)
    arguments = build_argument_parser().parse_args(argv)
    # Malformed option values raise here, before a kernel exists.
    options = QueryOptions(
        mode=arguments.mode,
        fanouts=_parse_fanouts(arguments.fanouts) if arguments.fanouts else None,
        retries=arguments.retries,
        cache=CacheConfig(enabled=True) if arguments.cache else None,
        on_error=arguments.on_error,
        optimize=arguments.optimize,
    )
    wsmed = WSMED(profile=arguments.profile)
    wsmed.import_all()
    kernel = _build_kernel(arguments.kernel, arguments.workers)
    engine = None
    if arguments.engine or arguments.share:
        engine = QueryEngine(
            wsmed,
            kernel=kernel,
            share=arguments.share,
        )
    shell = Shell(
        wsmed,
        out,
        # The engine owns its kernel; one-shot queries are handed it.
        options=options.replace(kernel=kernel if engine is None else None),
        engine=engine,
        trace_out=arguments.trace_out,
    )
    shell.trace = arguments.query is None or arguments.tree
    if arguments.batch:
        try:
            shell.set_batch(int(arguments.batch))
        except (ValueError, ReproError):
            print(f"error: --batch expects a size, got {arguments.batch!r}", file=out)
            return 1
    # `with kernel:` (Kernel.__enter__/__exit__) guarantees the worker
    # fleet / event loop is torn down even when the query raises.
    with kernel if kernel is not None else contextlib.nullcontext():
        try:
            if arguments.query is None:
                shell.repl(sys.stdin)
                return 0
            try:
                if arguments.explain:
                    shell.explain(arguments.query)
                else:
                    shell.run_sql(arguments.query)
                    for view in ("tree", "summary", "stats"):
                        if getattr(arguments, view):
                            print(shell.show(view), file=out)
            except ReproError as error:
                print(f"error: {error}", file=out)
                return 1
            return 0
        finally:
            if engine is not None:
                engine.close()
