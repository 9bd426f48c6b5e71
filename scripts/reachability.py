"""Function-level reachability audit of ``src/repro``.

Lists every function and method defined under ``src/repro`` that the
shipped entry points never run, with whether the tests run it::

    PYTHONPATH=src python scripts/reachability.py [--json FILE] [--check FILE]

Two recordings are taken, each in a fresh interpreter with a stdlib
``sys.setprofile``/``threading.setprofile`` hook that notes every code
object entered:

* **tier-1** — ``pytest tests`` in-process;
* **entry points** — everything the repository ships to be run:
  - every ``examples/*.py`` ``main()``;
  - every ``benchmarks/bench_*.py`` smoke run (``run(smoke=True)``, its
    report and its claims);
  - the five ``benchmarks/e2e`` workloads (end-to-end smoke pass) and
    the per-layer probes, run in-process.  ``python -m benchmarks.e2e
    --smoke`` starts each workload in a subprocess, and ``http_serve``
    starts its server in another; the profiler cannot see either, so
    here the workloads run in this interpreter and ``http_serve``'s
    server runs on a thread of it;
  - the CLI one-shot (``python -m repro --query``) under each flag;
  - the interactive shell, fed a script that uses every meta command;
  - ``python -m repro serve`` on both of its kernels, answering what
    ``scripts/serve_smoke.sh`` sends plus the endpoints' error paths;
  - CI's observability smoke: a traced Fig-3 query and a fault-injected
    Query1 whose spans are checked and whose exported traces, like every
    trace the server wrote, pass ``python -m repro.obs.validate``.

``ProcessKernel`` workers are forked from the recording interpreter; each
records its own calls and hands them back when it exits normally.

A function is *reached* when its code object ran at least once.
Functions are found with :mod:`ast` (``def`` and ``async def`` at any
depth, not lambdas); a line count spans the decorators to the last line.
The report ends with the ``test-only`` and ``unreached`` rows: function,
lines, and what reached it.

``--check FILE`` is a ratchet: it exits 1 when a test-only or unreached
function is not in the baseline FILE (rows as ``--json`` writes them,
matched by module and qualified name).  The committed baseline is
``scripts/reachability_baseline.json``; a change either shrinks it or
adds its new entry there on purpose::

    PYTHONPATH=src python scripts/reachability.py --check scripts/reachability_baseline.json
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import multiprocessing.util
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


# -- the inventory -----------------------------------------------------------------


def inventory() -> dict[tuple[str, int], dict]:
    """Every function under ``src/repro`` keyed by (path, first line)."""
    functions: dict[tuple[str, int], dict] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, scope: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    functions[(relative, first)] = {
                        "module": relative[:-3].replace("/", ".").removesuffix(
                            ".__init__"
                        ),
                        "name": ".".join(scope + [child.name]),
                        "line": child.lineno,
                        "lines": child.end_lineno - first + 1,
                    }
                    visit(child, scope + [child.name, "<locals>"])
                else:
                    visit(child, scope)

        visit(tree, [])
    return functions


# -- recording ---------------------------------------------------------------------


class Recorder:
    """Collects the code objects entered, in this process and forked children."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.seen: set = set()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def install(self) -> None:
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)
        # After the child has cleared the finalizers it inherited.
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _forked(self) -> None:
        self.seen = set()
        sys.setprofile(self._profile)
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        prefix = str(PACKAGE) + os.sep
        seen = self.seen.copy()  # one C call: threads still running may add
        reached = sorted(
            {
                (Path(code.co_filename).relative_to(SRC).as_posix(), code.co_firstlineno)
                for code in seen
                if code.co_filename.startswith(prefix)
            }
        )
        path = os.path.join(self.out_dir, f"reached-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(reached, handle)


def record_tests() -> None:
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if status not in (0, 1):
        raise SystemExit(f"pytest exited with {status}")


# -- the entry points ----------------------------------------------------------------

SMALL_SQL = "SELECT gs.State FROM GetAllStates gs LIMIT 3"
#: One dependent call per state: small enough for the real-time kernels.
CHAIN_SQL = (
    "SELECT gi.GetInfoByStateResult FROM GetAllStates gs, GetInfoByState gi "
    "WHERE gs.State = gi.USState"
)


def _load(path: Path, name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        _load(path, f"example_{path.stem}").main()


def run_bench_smokes() -> None:
    import importlib

    from benchmarks import harness

    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        bench = importlib.import_module(f"benchmarks.{path.stem}")
        harness.finish(bench, bench.run(smoke=True), smoke=True)


def run_e2e() -> None:
    from benchmarks.e2e.cli import run_end_to_end
    from benchmarks.e2e.probes import run_probes
    from benchmarks.e2e.workloads import WORKLOADS, HttpServe, warm_wsmed

    from repro import AsyncioKernel, QueryEngine
    from repro.serve import QueryServer

    class ThreadedHttpServe(HttpServe):
        """``http_serve`` with its server on a thread of this process."""

        in_process = True

        def build(self) -> None:
            kernel = AsyncioKernel(resident=True, time_scale=1e-6)
            engine = QueryEngine(warm_wsmed(), kernel=kernel)
            self.query_server = QueryServer(engine, port=0)
            started = threading.Event()

            async def serve() -> None:
                await self.query_server.start()
                started.set()
                await self.query_server.run()

            def body() -> None:
                try:
                    kernel.run(serve())
                finally:
                    engine.close()

            self.thread = threading.Thread(target=body, name="http-serve")
            self.thread.start()
            if not started.wait(60):
                raise RuntimeError("the server thread did not start")
            self.port = self.query_server.port

        def children(self) -> list[int]:
            return []

        def close(self) -> None:
            if getattr(self, "thread", None) is not None:
                self.query_server.stop()
                self.thread.join(60)

    for name, cls in WORKLOADS.items():
        run_end_to_end(
            ThreadedHttpServe if cls is HttpServe else cls, 1, 0.5, smoke=True
        )
    run_probes(1, batches=1, scale=20)


def _cli(*argv: str, stdin: str | None = None) -> str:
    from repro import cli

    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        cli.main(list(argv), out=out)
    finally:
        sys.stdin = saved
    return out.getvalue()


def run_cli(scratch: str) -> None:
    from repro import QUERY1_SQL

    query1 = " ".join(QUERY1_SQL.split())
    trace = os.path.join(scratch, "oneshot.trace.json")
    fast = ("--profile", "fast")
    _cli("--query", query1)  # the calibrated paper profile, central
    _cli("--query", query1, *fast, "--mode", "parallel", "--fanouts", "5,4",
         "--tree", "--summary", "--stats", "--trace-out", trace)
    _cli("--query", query1, *fast, "--mode", "adaptive", "--cache",
         "--batch", "2", "--on-error", "retry", "--retries", "1")
    _cli("--query", query1, *fast, "--mode", "parallel", "--fanouts", "3,2",
         "--batch", "4", "--optimize", "cost", "--summary")
    _cli("--query", query1, "--profile", "uncontended", "--explain")
    _cli("--query", query1, *fast, "--explain", "--optimize", "cost",
         "--mode", "parallel", "--fanouts", "5,4")
    # Explain renders every node kind of a plan: a filter, OR, DISTINCT and
    # LIMIT in one, a GROUP BY (which OR rejects) in the other.
    _cli("--query", "SELECT DISTINCT gs.State FROM GetAllStates gs WHERE gs.State = 'Utah' "
         "OR gs.State = 'Ohio' LIMIT 3", *fast, "--explain")
    _cli("--query", "SELECT gs.State, COUNT(*) FROM GetAllStates gs GROUP BY gs.State",
         *fast, "--explain")
    _cli("--query", query1, *fast, "--engine", "--mode", "parallel",
         "--fanouts", "5,4", "--stats")
    _cli("--query", query1, *fast, "--share", "--mode", "adaptive", "--summary")
    _cli("--query", CHAIN_SQL, *fast, "--kernel", "asyncio", "--mode",
         "parallel", "--fanouts", "3")
    _cli("--query", CHAIN_SQL, *fast, "--kernel", "process", "--workers", "1",
         "--mode", "parallel", "--fanouts", "3", "--engine")
    _cli("--query", "SELECT nothing FROM Nowhere n", *fast)  # an error line
    _cli("--query", query1, *fast, "--batch", "x")  # a usage error


SHELL_SCRIPT = r"""
\help
\views
\owf GetPlacesWithin
\stats
\tree
\mode parallel
\fanouts 3,2
\optimize cost
\retries 1
\rows 5
{q1};
\tree
\summary
\util
\gantt
\stats
\stats calls
\stats tree
\stats cache
\stats batch
\stats faults
\stats critical_path
\stats engine
\stats share
\stats nonsense
\cache on 100
\batch 4
\faults retry
{q1};
\stats cache
\stats batch
\mode central
SELECT gs.State
  FROM GetAllStates gs;
SELECT o.owf, o.operation FROM ws_operations o;
\cache on
\batch 8
\faults inject 0.05 0.0
\mode adaptive
\optimize heuristic
{q1};
\stats faults
\stats batch
\cache off
\batch off
\faults off
\faults skip
\explain {q1};
\mode central
{q1};
SELECT nothing FROM Nowhere n;
\mode sideways
\optimize never
\fanouts x
\retries x
\rows x
\cache maybe
\batch x
\faults inject x
\faults sometimes
\owf NoSuchFunction
\nonsense
\quit
"""


def run_shell(scratch: str) -> None:
    from repro import QUERY1_SQL

    script = SHELL_SCRIPT.format(q1=" ".join(QUERY1_SQL.split()))
    trace = os.path.join(scratch, "shell.trace.json")
    _cli("--profile", "fast", "--trace-out", trace, stdin=script)
    _cli("--profile", "fast", "--engine", "--share", stdin=script)


class _Announcements(io.StringIO):
    """The server's stdout; sets ``serving`` when the listener is up."""

    def __init__(self) -> None:
        super().__init__()
        self.serving = threading.Event()

    def write(self, text: str) -> int:
        if "serving on" in text:
            self.serving.set()
        return super().write(text)


def _http(port: int, method: str, path: str, body: bytes | None = None) -> int:
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def _serve_requests(port: int) -> None:
    from repro import QUERY1_SQL, QUERY2_SQL

    def post(payload) -> int:
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return _http(port, "POST", "/sql", raw)

    post({"sql": QUERY2_SQL, "trace": True,
          "options": {"mode": "parallel", "fanouts": [4, 3], "name": "Query2"}})
    post({"sql": QUERY1_SQL, "options": {
        "mode": "adaptive", "adaptation": {"p": 2, "drop_stage": False},
        "cache": {"max_entries": 1000, "ttl": 100.0}, "retries": 1,
        "on_error": "retry", "optimize": "cost", "tenant": "analytics",
        "deadline_ms": 1e9}})
    post({"sql": SMALL_SQL, "options": {"cache": True}})
    post({"sql": SMALL_SQL, "options": {"deadline_ms": 1}})  # shed: 429
    for bad in (
        b"", b"not json", b"[]", {"sql": SMALL_SQL, "extra": 1},
        {"sql": SMALL_SQL, "options": []}, {"sql": SMALL_SQL, "options": {"x": 1}},
        {"sql": SMALL_SQL, "options": {"tenant": ""}},
        {"sql": SMALL_SQL, "options": {"deadline_ms": -1}},
        {"sql": SMALL_SQL, "options": {"optimize": "magic"}},
        {"sql": SMALL_SQL, "options": {"adaptation": {"q": 1}}},
        {"sql": SMALL_SQL, "options": {"adaptation": 3}},
        {"sql": SMALL_SQL, "options": {"cache": {"bogus": 1}}},
        {"sql": SMALL_SQL, "options": {"cache": 3}},
        {"sql": SMALL_SQL, "options": {"fanouts": "54"}},
        {"sql": "SELECT nothing FROM Nowhere n"},
    ):
        post(bad)
    _http(port, "GET", "/stats")
    _http(port, "GET", "/healthz")
    _http(port, "GET", "/sql")
    _http(port, "GET", "/nowhere")


def run_serve(scratch: str, *extra: str) -> None:
    """``repro serve`` in this interpreter's main thread (it installs
    signal handlers); a client thread sends the requests, then SIGTERM."""
    import signal

    from repro import cli

    out = _Announcements()
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}

    def client() -> None:
        try:
            if out.serving.wait(120):
                port = int(out.getvalue().split("http://127.0.0.1:")[1].split()[0])
                _serve_requests(port)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=client, name="serve-client")
    thread.start()
    try:
        cli.serve_main(
            ["--port", "0", "--profile", "fast",
             "--trace-dir", os.path.join(scratch, "traces"), *extra],
            out,
        )
    finally:
        thread.join()
        for sig, handler in handlers.items():
            signal.signal(sig, handler)


def run_trace_checks(scratch: str) -> None:
    """CI's observability smoke: a traced Fig-3 query and a fault-injected
    Query1 whose spans, reports and exported traces are checked, plus
    ``python -m repro.obs.validate`` on every trace ``repro serve`` wrote."""
    from repro import QUERY1_SQL, QUERY2_SQL, WSMED, FaultInjection, QueryOptions, TraceRecorder
    from repro.obs import validate
    from repro.render import render_report, write_chrome_trace

    wsmed = WSMED(profile="paper")
    wsmed.import_all()
    result = wsmed.sql(
        QUERY2_SQL,
        options=QueryOptions(
            mode="parallel", fanouts=[4, 3], name="Query2", obs=TraceRecorder()
        ),
    )
    if validate.validate_spans(result.spans):
        raise RuntimeError("the traced Fig-3 query has invalid spans")
    render_report(result, sections=["calls", "critical_path"])
    path = os.path.join(scratch, "TRACE_query2.json")
    write_chrome_trace(result.spans, path)
    faulty = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="parallel", fanouts=[5, 4], on_error="retry",
            faults=FaultInjection(0.1, 0.02), obs=TraceRecorder(),
        ),
    )
    validate.validate_spans(faulty.spans)
    render_report(faulty, sections=["faults"])
    faults_path = os.path.join(scratch, "TRACE_query1_faults.json")
    write_chrome_trace(faulty.spans, faults_path)
    for trace in [path, faults_path, *Path(scratch, "traces").glob("*.json")]:
        if validate.main([str(trace)]) != 0:
            raise RuntimeError(f"invalid trace {trace}")


def record_entry_points() -> None:
    sys.path.insert(0, str(ROOT))
    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(io.StringIO()):
            run_examples()
            run_bench_smokes()
            run_e2e()
            run_cli(scratch)
            run_shell(scratch)
            run_serve(scratch)
            run_serve(scratch, "--kernel", "process", "--workers", "1")
            run_serve(scratch, "--admission", "adaptive", "--share",
                      "--optimize", "cost", "--deadline-ms", "1e9")
            run_trace_checks(scratch)


# -- the report -------------------------------------------------------------------


def reached(*recordings: str) -> list[set[tuple[str, int]]]:
    """Run the recordings side by side, each in a fresh interpreter; the
    (path, first line) keys each one reached."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for which in recordings:
            out_dir = os.path.join(scratch, which)
            os.mkdir(out_dir)
            process = subprocess.Popen(
                [sys.executable, __file__, "--record", which, out_dir],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            )
            runs.append((which, process, out_dir))
        results = []
        for which, process, out_dir in runs:
            if process.wait() != 0:
                raise SystemExit(f"the {which} recording failed")
            keys: set[tuple[str, int]] = set()
            for path in Path(out_dir).glob("reached-*.json"):
                keys.update(tuple(key) for key in json.loads(path.read_text()))
            results.append(keys)
    return results


def report(functions: dict, tests: set, entries: set) -> list[dict]:
    rows = []
    for key, function in functions.items():
        if key in entries:
            continue
        rows.append({**function, "reached_by": "tier-1" if key in tests else "nothing"})
    rows.sort(key=lambda row: (row["reached_by"], row["module"], row["line"]))
    total = len(functions)
    print(f"functions in src/repro: {total}")
    print(f"reached by tier-1: {sum(key in tests for key in functions)}")
    print(f"reached by entry points: {sum(key in entries for key in functions)}")
    for label in ("tier-1", "nothing"):
        group = [row for row in rows if row["reached_by"] == label]
        kind = "test-only" if label == "tier-1" else "unreached"
        print(f"{kind}: {len(group)} functions, {sum(r['lines'] for r in group)} lines")
    print()
    print(f"{'function':<72} {'lines':>5}  reached by")
    for row in rows:
        name = f"{row['module']}:{row['name']}"
        print(f"{name:<72} {row['lines']:>5}  {row['reached_by']}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="FILE", help="also write the rows as JSON")
    parser.add_argument("--check", metavar="FILE",
                        help="fail on a row that the baseline FILE does not list")
    parser.add_argument("--record", nargs=2, metavar=("WHICH", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        which, out_dir = args.record
        recorder = Recorder(out_dir)
        recorder.install()
        try:
            record_tests() if which == "tests" else record_entry_points()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            recorder.dump()
        return 0
    functions = inventory()
    rows = report(functions, *reached("tests", "entries"))
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    if args.check:
        known = {(row["module"], row["name"]) for row in json.loads(Path(args.check).read_text())}
        new = [row for row in rows if (row["module"], row["name"]) not in known]
        for row in new:
            print(f"not in {args.check}: {row['module']}:{row['name']} ({row['reached_by']})")
        return 1 if new else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
